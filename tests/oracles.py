"""Independent test oracles shared by the unit and acceptance suites."""

import numpy as np

from embedtrack import (
    TRACK_DTYPE,
    EmbeddingHeadParams,
    MotCounts,
    PairCounts,
    batch_loss,
    distance_matrix,
    embed_batch,
    iou,
)


def match_oracle(d, h):
    """Per-row enumeration of the matching conditions: j is the first
    minimum of row i, i is the first minimum of column j, d[i, j] < h."""
    n_rows, n_cols = d.shape
    out = []
    for i in range(n_rows):
        match = None
        for j in range(n_cols):
            row_first_min = all(d[i, k] > d[i, j] for k in range(j)) and all(
                d[i, k] >= d[i, j] for k in range(j + 1, n_cols)
            )
            col_first_min = all(d[k, j] > d[i, j] for k in range(i)) and all(
                d[k, j] >= d[i, j] for k in range(i + 1, n_rows)
            )
            if row_first_min and col_first_min and d[i, j] < h:
                match = j
                break
        out.append(match)
    return out


def loop_tracker(frames, params, threshold, score_threshold=0.5):
    """The tracks array of a frame-by-frame loop: kept rows are matched to
    the previous frame's kept rows by `match_oracle`, a matched row takes
    its partner's id, any other row the next value of a plain counter, and
    no row of a frame that does not `follows` the one before is matched."""
    rows = []
    former, former_ids = np.zeros((0, params.embed_dim)), []
    next_id = 0
    for k, frame in enumerate(frames):
        kept = frame.detections["confidence"] >= score_threshold
        emb = embed_batch(params, frame.detections["feature"][kept])
        if k == 0 or not frame.follows(frames[k - 1]):
            former, former_ids = former[:0], []
        ids = []
        for j in match_oracle(distance_matrix(emb, former), threshold):
            if j is None:
                ids.append(next_id)
                next_id += 1
            else:
                ids.append(former_ids[j])
        for det, track_id in zip(frame.detections[kept], ids):
            rows.append((frame.frame_index, track_id, det["box"], det["confidence"]))
        former, former_ids = emb, ids
    return np.array(rows, dtype=TRACK_DTYPE)


def finite_diff_gradient(params, batch, cfg, eps=1e-5):
    """Central-difference gradient of `batch_loss`, one coordinate at a time."""
    flat = params.to_flat()
    grad = np.zeros_like(flat)
    f, h, e = params.feature_dim, params.hidden_dim, params.embed_dim
    for k in range(flat.size):
        bumped = flat.copy()
        bumped[k] += eps
        hi = batch_loss(EmbeddingHeadParams.from_flat(bumped, f, h, e), batch, cfg)
        bumped[k] = flat[k] - eps
        lo = batch_loss(EmbeddingHeadParams.from_flat(bumped, f, h, e), batch, cfg)
        grad[k] = (hi - lo) / (2.0 * eps)
    return EmbeddingHeadParams.from_flat(grad, f, h, e)


def _loop_distance_grad(d, ids, cfg):
    """d(loss)/d(distance matrix), one anchor and one identity at a time.

    Subgradient 0 at hinge and absolute-value kinks; argmax/argmin ties
    resolve to the first occurrence, and an identity's largest pair is the
    first in row-major order over its members.
    """
    n = ids.shape[0]
    dd = np.zeros((n, n))

    same = ids[:, None] == ids[None, :]
    pos = same & ~np.eye(n, dtype=bool)
    neg = ~same
    valid = pos.any(axis=1) & neg.any(axis=1)
    if valid.any() and cfg.w_triplet > 0:
        masked_pos = np.where(pos, d, -np.inf)
        masked_neg = np.where(neg, d, np.inf)
        jp = masked_pos.argmax(axis=1)
        jn = masked_neg.argmin(axis=1)
        slack = masked_pos.max(axis=1) - masked_neg.min(axis=1) + cfg.margin
        active = valid & (slack > 0)
        w = cfg.w_triplet / valid.sum()
        for i in np.nonzero(active)[0]:
            dd[i, jp[i]] += w
            dd[i, jn[i]] -= w

    if cfg.w_pull > 0:
        multi = [ident for ident in np.unique(ids) if (ids == ident).sum() >= 2]
        if multi:
            w = cfg.w_pull / len(multi)
            for ident in multi:
                members = np.nonzero(ids == ident)[0]
                sub = d[np.ix_(members, members)].copy()
                np.fill_diagonal(sub, -np.inf)
                i, j = np.unravel_index(sub.argmax(), sub.shape)
                dd[members[i], members[j]] += w * np.sign(sub[i, j] - cfg.pull_margin)

    return dd


def loop_gradient(params, batch, cfg):
    """Gradient of `batch_loss` by a per-anchor, per-identity loop over the
    distance gradient, chained through the squared distances and the two
    layers: d(loss)/d(e_i) = 2 * sum_j S_ij * (e_i - e_j) with S the
    symmetrised distance gradient."""
    feats = batch.features
    z = feats @ params.w1.T + params.b1
    a = np.maximum(z, 0.0)
    e = a @ params.w2.T + params.b2
    dd = _loop_distance_grad(distance_matrix(e, e), batch.identities, cfg)
    s = dd + dd.T
    g_e = 2.0 * (s.sum(axis=1, keepdims=True) * e - s @ e)
    g_z = (g_e @ params.w2) * (z > 0)
    return EmbeddingHeadParams(
        w1=g_z.T @ feats, b1=g_z.sum(axis=0), w2=g_e.T @ a, b2=g_e.sum(axis=0)
    )


def scalar_claims(pred_boxes, gt_boxes, iou_min):
    """Unique highest-IoU matching, one scalar `iou` call per pair: each
    prediction claims its first highest-IoU ground truth above iou_min; the
    first highest-IoU claimant keeps it. None predictions never claim."""
    claims = [None] * len(pred_boxes)
    if not gt_boxes:
        return claims
    best_iou = [0.0] * len(pred_boxes)
    for i, pb in enumerate(pred_boxes):
        if pb is None:
            continue
        overlaps = [iou(pb, gb) for gb in gt_boxes]
        j = int(np.argmax(overlaps))
        if overlaps[j] > iou_min:
            claims[i] = j
            best_iou[i] = overlaps[j]
    winners = {}
    for i, j in enumerate(claims):
        if j is None:
            continue
        if j not in winners or best_iou[i] > best_iou[winners[j]]:
            winners[j] = i
    return [j if j is not None and winners[j] == i else None for i, j in enumerate(claims)]


def scalar_average_precision(predictions, ground_truths, iou_threshold):
    """Detection AP with one scalar `iou` call per (prediction, ground truth)
    of an image, recomputed at every threshold: predictions ranked by
    confidence (stable), each greedily takes the best still-unmatched ground
    truth of its image at IoU >= iou_threshold."""
    if not ground_truths:
        raise ValueError("average precision is undefined without ground truths")
    if not predictions:
        return 0.0

    by_image = {}
    for gi, (img, _) in enumerate(ground_truths):
        by_image.setdefault(img, []).append(gi)
    matched = [False] * len(ground_truths)

    conf = np.array([c for _, _, c in predictions])
    order = np.argsort(-conf, kind="stable")
    is_tp = np.zeros(order.size, dtype=bool)
    for rank, k in enumerate(order):
        img, box, _ = predictions[k]
        best_j, best_ov = None, 0.0
        for gi in by_image.get(img, ()):
            if matched[gi]:
                continue
            ov = iou(box, ground_truths[gi][1])
            if ov >= iou_threshold and ov > best_ov:
                best_j, best_ov = gi, ov
        if best_j is not None:
            matched[best_j] = True
            is_tp[rank] = True

    tp_cum = np.cumsum(is_tp)
    fp_cum = np.cumsum(~is_tp)
    recall = tp_cum / len(ground_truths)
    precision = tp_cum / (tp_cum + fp_cum)

    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    change = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[change + 1] - mrec[change]) * mpre[change + 1]))


def loop_mot_counts(pred_frames, gt_frames, iou_min=0.5):
    """CLEAR-MOT tallies frame by frame through `scalar_claims`: a matched
    ground truth is a mismatch when its identity was last matched with
    another track id, however long ago."""
    fp = miss = mismatch = gt_total = 0
    last_track = {}
    for preds, gts in zip(pred_frames, gt_frames):
        gt_total += len(gts)
        claims = scalar_claims([b for b, _ in preds], [b for b, _ in gts], iou_min)
        matched = 0
        for (_, track_id), j in zip(preds, claims):
            if j is None:
                fp += 1
                continue
            matched += 1
            identity = gts[j][1]
            if identity in last_track and last_track[identity] != track_id:
                mismatch += 1
            last_track[identity] = track_id
        miss += len(gts) - matched
    return MotCounts(fp=fp, miss=miss, mismatch=mismatch, gt_total=gt_total)


def loop_pair_counts(pred_frames, gt_frames, neighbors, score_threshold=0.5, iou_min=0.5):
    """Pair confusion counts by enumerating every (labeled row of t) x
    (labeled row of u) for each (t, u) in `neighbors`; rows are labeled
    frame by frame through `scalar_claims` on the confident predictions."""
    labeled = []
    for preds, gts in zip(pred_frames, gt_frames):
        claims = scalar_claims(
            [b if c >= score_threshold else None for b, c, _ in preds], [b for b, _ in gts], iou_min
        )
        labeled.append([(gts[j][1], t) for (_, _, t), j in zip(preds, claims) if j is not None])
    tp = tn = fp = fn = 0
    for t, u in neighbors:
        for ident_a, track_a in labeled[t]:
            for ident_b, track_b in labeled[u]:
                actual = ident_a == ident_b
                predicted = track_a == track_b
                if actual and predicted:
                    tp += 1
                elif actual:
                    fn += 1
                elif predicted:
                    fp += 1
                else:
                    tn += 1
    return PairCounts(tp=tp, tn=tn, fp=fp, fn=fn)
