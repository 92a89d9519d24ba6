"""SVG rendering of skeletons and zero sets."""

import cmath
import math

from voroderiv import voronoi
from voroderiv.svg import render_svg


def cube_diagram():
    return voronoi.build([cmath.exp(2j * math.pi * k / 3) for k in range(3)])


def test_render_writes_wellformed_svg(tmp_path):
    import xml.etree.ElementTree as ET
    out = tmp_path / "skel.svg"
    render_svg(str(out), cube_diagram(), roots=[0.2 + 0.1j, -0.5j],
               window=(0.0, 2.0))
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    tags = [el.tag.split("}")[-1] for el in root.iter()]
    assert tags.count("line") == 3      # three skeleton edges
    assert "circle" in tags             # sites and roots as circles


def test_render_is_deterministic(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    d = cube_diagram()
    roots = [0.3, 0.5j, -0.4 - 0.2j]
    render_svg(str(a), d, roots=roots, window=(0.0, 2.0))
    render_svg(str(b), d, roots=roots, window=(0.0, 2.0))
    assert a.read_bytes() == b.read_bytes()


def test_render_clips_rays_to_window(tmp_path):
    out = tmp_path / "c.svg"
    render_svg(str(out), cube_diagram(), window=(0.0, 0.5), roots=())
    text = out.read_text()
    # all coordinates stay on the finite canvas
    assert "inf" not in text


def test_render_without_diagram(tmp_path):
    out = tmp_path / "dots.svg"
    render_svg(str(out), None, roots=[1.0, 1j], window=(0.0, 2.0))
    assert out.exists() and out.stat().st_size > 0
