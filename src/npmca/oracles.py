"""Loop reference implementations shared by ``npmca verify`` and the tests.

Everything here is written as direct loops over the defining formulas and
never calls into the package's vectorized code, so agreement between the
two is meaningful evidence rather than a tautology.
"""

import math

import numpy as np


def matmul_loops(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_columns_loops(m):
    m = np.asarray(m, dtype=np.float64)
    rows, cols = m.shape
    out = np.zeros((rows, cols))
    for j in range(cols):
        top = max(m[i, j] for i in range(rows))
        exps = [math.exp(m[i, j] - top) for i in range(rows)]
        total = sum(exps)
        for i in range(rows):
            out[i, j] = exps[i] / total
    return out


def conv2d_loops(x, w, b, stride=1, pad=0):
    """Six-loop cross-correlation with explicit zero padding."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((oh, ow, cout))
    for oy in range(oh):
        for ox in range(ow):
            for oc in range(cout):
                acc = b[oc]
                for ky in range(kh):
                    for kx in range(kw):
                        iy = oy * stride + ky - pad
                        ix = ox * stride + kx - pad
                        if 0 <= iy < h and 0 <= ix < wd:
                            for ic in range(cin):
                                acc += x[iy, ix, ic] * w[ky, kx, ic, oc]
                out[oy, ox, oc] = acc
    return out


def bilinear_gather(x, out_h, out_w):
    """Direct four-tap bilinear sampling with half-pixel centers."""
    x = np.asarray(x, dtype=np.float64)
    h, w, c = x.shape
    out = np.zeros((out_h, out_w, c))
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            for ch in range(c):
                top = (1.0 - fx) * x[y0, x0, ch] + fx * x[y0, x1, ch]
                bot = (1.0 - fx) * x[y1, x0, ch] + fx * x[y1, x1, ch]
                out[oy, ox, ch] = (1.0 - fy) * top + fy * bot
    return out


def nlpmm_loops(f_ref, f_tar, w_ref, b_ref, w_tar, b_tar):
    """Monolithic matching block: reduce, similarity, softmax, gather.

    Inputs are (H, W, C) feature maps; the result is the (H, W, C/4)
    matched map. Only loop primitives above are used.
    """
    f_ref = np.asarray(f_ref, dtype=np.float64)
    f_tar = np.asarray(f_tar, dtype=np.float64)
    h, w, _ = f_ref.shape
    n = h * w
    r_ref = conv2d_loops(f_ref, w_ref, b_ref, stride=1, pad=1)
    r_tar = conv2d_loops(f_tar, w_tar, b_tar, stride=1, pad=1)
    c4 = r_ref.shape[2]
    ref_flat = r_ref.reshape(n, c4)
    tar_flat = r_tar.reshape(n, c4)
    sim = matmul_loops(ref_flat, tar_flat.T)
    sim_n = softmax_columns_loops(sim)
    matched = matmul_loops(ref_flat.T, sim_n)  # (c4, n)
    out = np.zeros((h, w, c4))
    for j in range(n):
        for ch in range(c4):
            out[j // w, j % w, ch] = matched[ch, j]
    return out


def cm_loops(f_in, gamma):
    """Monolithic channel attention: gram, column softmax, reweight, blend."""
    f_in = np.asarray(f_in, dtype=np.float64)
    h, w, c4 = f_in.shape
    n = h * w
    flat = f_in.reshape(n, c4)
    gram = matmul_loops(flat.T, flat)
    gram_n = softmax_columns_loops(gram)
    strengthened = matmul_loops(flat, gram_n)
    out = np.zeros((n, c4))
    for i in range(n):
        for j in range(c4):
            out[i, j] = gamma * strengthened[i, j] + flat[i, j]
    return out.reshape(h, w, c4)


def aggregate_loops(per_object, eps=1e-7):
    """Odds-ratio merge of single-object probabilities, pixel by pixel."""
    per_object = np.asarray(per_object, dtype=np.float64)
    m, h, w = per_object.shape
    probs = np.zeros((m + 1, h, w))
    labels = np.zeros((h, w), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            p = [min(max(per_object[k, y, x], eps), 1.0 - eps) for k in range(m)]
            p0 = 1.0
            for v in p:
                p0 *= 1.0 - v
            p0 = min(max(p0, eps), 1.0 - eps)
            odds = [p0 / (1.0 - p0)] + [v / (1.0 - v) for v in p]
            total = sum(odds)
            for k in range(m + 1):
                probs[k, y, x] = odds[k] / total
            # argmax with ties resolved toward the smaller index
            best = 0
            for k in range(1, m + 1):
                if probs[k, y, x] > probs[best, y, x]:
                    best = k
            labels[y, x] = best
    return probs, labels


def boundary_loops(binary):
    """Object pixels 4-adjacent to background or to the image border."""
    binary = np.asarray(binary, dtype=bool)
    h, w = binary.shape
    out = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            if not binary[y, x]:
                continue
            on_border = y == 0 or x == 0 or y == h - 1 or x == w - 1
            touches_bg = False
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and not binary[ny, nx]:
                    touches_bg = True
            out[y, x] = on_border or touches_bg
    return out


def contour_f_loops(pred, gt, object_id, radius):
    """Boundary F-score via brute-force nearest-boundary distances."""
    pb = boundary_loops(np.asarray(pred) == object_id)
    gb = boundary_loops(np.asarray(gt) == object_id)
    p_pts = list(zip(*np.nonzero(pb)))
    g_pts = list(zip(*np.nonzero(gb)))
    if not p_pts and not g_pts:
        return 1.0
    if not p_pts or not g_pts:
        return 0.0

    def hits(src, dst):
        count = 0
        for (y, x) in src:
            best = min((y - v) ** 2 + (x - u) ** 2 for (v, u) in dst)
            if best <= radius * radius:
                count += 1
        return count

    precision = hits(p_pts, g_pts) / len(p_pts)
    recall = hits(g_pts, p_pts) / len(g_pts)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def finite_difference(loss_fn, values, indices, h=1e-6):
    """Central-difference derivative of loss_fn at the given flat indices.

    ``values`` is mutated in place around each evaluation and restored
    afterwards, so loss_fn can close over it.
    """
    flat = values.reshape(-1)
    grads = []
    for idx in indices:
        keep = flat[idx]
        flat[idx] = keep + h
        up = loss_fn()
        flat[idx] = keep - h
        down = loss_fn()
        flat[idx] = keep
        grads.append((up - down) / (2.0 * h))
    return np.asarray(grads)


def relative_error(a, b, floor=1e-4):
    """|a - b| scaled by the larger magnitude, floored for tiny values."""
    a = float(a)
    b = float(b)
    return abs(a - b) / max(abs(a), abs(b), floor)
