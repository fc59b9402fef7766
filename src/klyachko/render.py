"""Staircase pictures for diagrams over two-dimensional fans.

Characters are drawn in the plane of the character lattice itself, one
panel per maximal cone: filled marks where the filtration lives, open
marks on the gaps, faint dots elsewhere.  Only the regions of maximal
cones are read, so no face of the diagram is derived.  ASCII for
terminals, SVG for files; both are plain deterministic string building.
"""

from .errors import InputError

FILLED = "#"
GAP = "o"
OUTSIDE = "."


def _require_plane(fan):
    if fan.dim != 2:
        raise InputError("rendering is only available for two-dimensional fans")


def default_radius(diag):
    """Half-width of the plotting window: past every finite cell bound.

    Maximal cones suffice: the bounds of a face's derived regions are among
    those of a maximal cone through it.
    """
    extent = 4
    for cone in diag.fan.max_cones:
        for region in (diag.support(cone), diag.gaps(cone)):
            for cell in region.cells:
                for _, (lo, hi) in cell.bounds:
                    for v in (lo, hi):
                        if v is not None:
                            extent = max(extent, abs(v) + 2)
    return extent


def _classify(fan, diag, cone, m):
    values = {ray: fan.pairing(m, ray) for ray in cone}
    if not diag.support(cone).contains_values(values):
        return OUTSIDE
    if diag.gaps(cone).contains_values(values):
        return GAP
    return FILLED


def _mark_rows(fan, diag, cone, r):
    """Rows of marks over the window [-r, r]^2, top row first, left to right."""
    for m2 in range(r, -r - 1, -1):
        yield [_classify(fan, diag, cone, (m1, m2)) for m1 in range(-r, r + 1)]


def ascii_diagram(fan, diag, radius=None):
    """One text panel per maximal cone, drawn in character coordinates."""
    _require_plane(fan)
    r = default_radius(diag) if radius is None else int(radius)
    blocks = []
    for cone in fan.max_cones:
        rays = ", ".join(str(fan.rays[i]) for i in cone)
        lines = [f"cone {cone}  rays {rays}",
                 f"window [{-r}, {r}]^2, {FILLED} member  {GAP} gap  {OUTSIDE} outside"]
        for i, row in enumerate(_mark_rows(fan, diag, cone, r)):
            if i == r and row[r] == OUTSIDE:
                row[r] = "+"   # the origin
            lines.append(" ".join(row))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


_SVG_STYLE = {
    FILLED: ('<rect x="{x}" y="{y}" width="14" height="14" rx="2" '
             'fill="#4a7ebb" fill-opacity="0.85"/>'),
    GAP: ('<circle cx="{cx}" cy="{cy}" r="5" fill="none" '
          'stroke="#c0392b" stroke-width="2"/>'),
    OUTSIDE: '<circle cx="{cx}" cy="{cy}" r="1.5" fill="#b0b0b0"/>',
}


def svg_diagram(fan, diag, radius=None):
    """All panels side by side in one SVG document."""
    _require_plane(fan)
    r = default_radius(diag) if radius is None else int(radius)
    side = 2 * r + 1
    cell = 18
    pad = 30
    panel = side * cell
    ncones = len(fan.max_cones)
    total_w = ncones * panel + (ncones + 1) * pad
    total_h = panel + 2 * pad + 20
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
             f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">',
             f'<rect width="{total_w}" height="{total_h}" fill="white"/>']
    for idx, cone in enumerate(fan.max_cones):
        ox = pad + idx * (panel + pad)
        oy = pad + 20
        rays = ",".join(str(fan.rays[i]) for i in cone)
        parts.append(f'<text x="{ox}" y="{pad}" font-family="monospace" '
                     f'font-size="13" fill="#333">cone {cone} rays {rays}</text>')
        parts.append(f'<rect x="{ox - 4}" y="{oy - 4}" width="{panel + 8}" '
                     f'height="{panel + 8}" fill="none" stroke="#888"/>')
        for i, row in enumerate(_mark_rows(fan, diag, cone, r)):
            py = oy + i * cell
            for j, mark in enumerate(row):
                px = ox + j * cell
                parts.append(_SVG_STYLE[mark].format(x=px + 2, y=py + 2,
                                                     cx=px + cell // 2, cy=py + cell // 2))
        axis_x = ox + r * cell + cell // 2
        axis_y = oy + r * cell + cell // 2
        parts.append(f'<circle cx="{axis_x}" cy="{axis_y}" r="2.5" fill="#111"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
