"""Exact geometry oracles the layout tests check results against."""


def total_area(rects) -> int:
    """Union area of possibly overlapping rects (sweep over y-slabs).

    Exact for integer coordinates; quadratic in the number of rects, so
    meant for per-clip geometry counts, not full chips.
    """
    rects = list(rects)
    if not rects:
        return 0
    ys = sorted({r.y0 for r in rects} | {r.y1 for r in rects})
    area = 0
    for y_lo, y_hi in zip(ys, ys[1:]):
        spans = sorted(
            (r.x0, r.x1) for r in rects if r.y0 <= y_lo and r.y1 >= y_hi
        )
        covered = 0
        cur_lo: int | None = None
        cur_hi: int | None = None
        for x0, x1 in spans:
            if cur_hi is None or x0 > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = x0, x1
            else:
                cur_hi = max(cur_hi, x1)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        area += covered * (y_hi - y_lo)
    return area
