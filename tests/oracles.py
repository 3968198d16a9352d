"""Independent test oracles shared by the unit and acceptance suites."""

from typing import Sequence

import numpy as np

from embedtrack import (
    GT_DTYPE,
    TRACK_DTYPE,
    DegenerateDevSetError,
    EmbeddingHeadParams,
    FrameParseError,
    FrameRecord,
    LabeledBatch,
    LossConfig,
    MotCounts,
    PairCounts,
    TrainingDivergedError,
    cosine_lr,
    detection_dtype,
    distance_matrix,
    embed_batch,
    init_params,
    iou,
)
from embedtrack.calibration import _check_pairs
from embedtrack.datasets import (
    BOX_RULE,
    _bad_boxes,
    _check_values,
    _json_lines,
    _objects,
    _parse_int,
)


def broadcast_distance_matrix(current, former):
    """`distance_matrix` as one broadcast subtraction, (n, 1, E) minus
    (1, m, E), then the same einsum over the last axis.

    The inputs are copied to C order first: from a Fortran-ordered input the
    broadcast difference keeps that layout, and einsum then sums each row in
    another order, which changes last bits."""
    cur = np.ascontiguousarray(current, dtype=np.float64)
    fmr = np.ascontiguousarray(former, dtype=np.float64)
    diff = cur[:, None, :] - fmr[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


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


def triplet_loss(distances: np.ndarray, identities: Sequence[int], margin: float) -> float:
    """Batch-hard triplet loss from a precomputed distance matrix.

    Each element with at least one same-identity other and one
    different-identity other acts as an anchor and contributes

        max(max(d_same) - min(d_diff) + margin, 0)

    The result is the mean over valid anchors, or 0.0 when there is none.
    """
    d = np.asarray(distances, dtype=np.float64)
    ids = np.asarray(identities)
    n = ids.shape[0]
    if d.shape != (n, n):
        raise ValueError(f"distance matrix shape {d.shape} does not match {n} identities")
    same = ids[:, None] == ids[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    pos = same & off_diag
    neg = ~same
    valid = pos.any(axis=1) & neg.any(axis=1)
    if not valid.any():
        return 0.0
    hardest_pos = np.where(pos, d, -np.inf).max(axis=1)
    hardest_neg = np.where(neg, d, np.inf).min(axis=1)
    per_anchor = np.maximum(hardest_pos - hardest_neg + margin, 0.0)
    return float(per_anchor[valid].mean())


def pull_loss(distances: np.ndarray, identities: Sequence[int], pull_margin: float) -> float:
    """Absolute deviation of each identity's largest intra-identity distance
    from `pull_margin`, averaged over identities with at least two members.

    Returns 0.0 when no identity has two members.
    """
    d = np.asarray(distances, dtype=np.float64)
    ids = np.asarray(identities)
    if d.shape != (ids.shape[0], ids.shape[0]):
        raise ValueError(f"distance matrix shape {d.shape} does not match {ids.shape[0]} identities")
    terms = []
    for ident in np.unique(ids):
        members = np.nonzero(ids == ident)[0]
        if members.size < 2:
            continue
        sub = d[np.ix_(members, members)]
        largest = sub[~np.eye(members.size, dtype=bool)].max()
        terms.append(abs(float(largest) - pull_margin))
    if not terms:
        return 0.0
    return float(np.mean(terms))


def batch_loss(params: EmbeddingHeadParams, batch: LabeledBatch, cfg: LossConfig) -> float:
    """`training.batch_loss` from the two losses above: weighted triplet +
    pull loss of one batch under the current head."""
    e = embed_batch(params, batch.features)
    d = distance_matrix(e, e)
    return cfg.w_triplet * triplet_loss(d, batch.identities, cfg.margin) + cfg.w_pull * pull_loss(
        d, batch.identities, cfg.pull_margin
    )


def counts_at(distances, is_same, threshold: float) -> PairCounts:
    """Confusion counts when pairs with distance < threshold are called same."""
    dist, same = _check_pairs(distances, is_same)
    pred = dist < threshold
    return PairCounts(
        tp=int((pred & same).sum()),
        tn=int((~pred & ~same).sum()),
        fp=int((pred & ~same).sum()),
        fn=int((~pred & same).sum()),
    )


def threshold_objective(counts: PairCounts) -> float:
    """Sum of the false-positive and false-negative rates: fp/gn + fn/gp."""
    if counts.gp == 0 or counts.gn == 0:
        raise DegenerateDevSetError(
            f"objective undefined with gp={counts.gp}, gn={counts.gn}"
        )
    return counts.fp / counts.gn + counts.fn / counts.gp


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
    return EmbeddingHeadParams(*_loop_gradient_arrays(params, batch, cfg))


def _loop_gradient_arrays(params, batch, cfg):
    """`loop_gradient` as its (w1, b1, w2, b2) arrays, which may overflow."""
    feats = batch.features
    z = feats @ params.w1.T + params.b1
    a = np.maximum(z, 0.0)
    e = a @ params.w2.T + params.b2
    dd = _loop_distance_grad(distance_matrix(e, e), batch.identities, cfg)
    s = dd + dd.T
    g_e = 2.0 * (s.sum(axis=1, keepdims=True) * e - s @ e)
    g_z = (g_e @ params.w2) * (z > 0)
    return g_z.T @ feats, g_z.sum(axis=0), g_e.T @ a, g_e.sum(axis=0)


def loop_train(batches, loss_config, train_config):
    """`train` from the references: per step `batch_loss` and `loop_gradient`
    of an immutable head, the out-of-place update `flat + (-lr) * grad` under
    `cosine_lr`, and `train`'s checks in `train`'s order."""
    dims = (batches[0].feature_dim, train_config.hidden_dim, train_config.embed_dim)
    params = init_params(*dims, np.random.default_rng(train_config.seed))
    total_steps = train_config.epochs * len(batches)
    trace = []
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(train_config.epochs):
            losses = []
            for batch in batches:
                loss = batch_loss(params, batch, loss_config)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"loss became non-finite at step {step}")
                losses.append(loss)
                grad = np.concatenate(
                    [g.ravel() for g in _loop_gradient_arrays(params, batch, loss_config)]
                )
                lr = cosine_lr(step, total_steps, train_config.initial_lr)
                flat = params.to_flat() + (-lr) * grad
                if not np.isfinite(flat).all():
                    raise TrainingDivergedError(f"parameters became non-finite at step {step}")
                params = EmbeddingHeadParams.from_flat(flat, *dims)
                step += 1
            trace.append(float(np.mean(losses)))
    return params, trace


def unique_batch_index(identities):
    """`training._batch_index` from `np.unique`: the fields (pos, neg,
    anchors, groups, rows) in order, identity groups in ascending order."""
    _, inverse, counts = np.unique(identities, return_inverse=True, return_counts=True)
    same = inverse[:, None] == inverse[None, :]
    pos = same & ~np.eye(inverse.size, dtype=bool)
    neg = ~same
    anchors = np.flatnonzero(pos.any(axis=1) & neg.any(axis=1))
    groups = np.flatnonzero(counts >= 2)[:, None] == inverse[None, :]
    return pos, neg, anchors, groups, np.arange(inverse.size)


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


def _leaves(values):
    if isinstance(values, list):
        for value in values:
            yield from _leaves(value)
    else:
        yield values


def _parse_floats(values, shape, line_number, field):
    """float64 array of one line's values, which must have `shape` and be
    JSON numbers, not strings or bools."""
    try:
        column = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FrameParseError(line_number, field, f"expected numbers: {exc}") from exc
    if column.shape != shape:
        raise FrameParseError(line_number, field, f"expected shape {shape}, got {values!r}")
    if any(isinstance(v, (str, bool)) for v in _leaves(values)):
        raise FrameParseError(
            line_number, field, f"expected numbers, not strings or bools, got {values!r}"
        )
    return column


def _parse_detections(dets, feature_dim, line_number):
    n = len(dets)
    box = _parse_floats([d.get("box") for d in dets], (n, 4), line_number, "detections.box")
    features = [d.get("feature") for d in dets]
    bad = [f for f in features if not (isinstance(f, list) and len(f) == feature_dim)]
    if bad:
        raise FrameParseError(
            line_number,
            "detections.feature",
            f"expected a list as long as the file's first, got {bad[0]!r}",
        )
    det = np.empty(n, dtype=detection_dtype(feature_dim))
    det["box"] = box
    gt_id = [d.get("gt_id") for d in dets]
    for g in gt_id:
        if g is not None and _parse_int(g, line_number, "detections.gt_id") < 0:
            raise FrameParseError(line_number, "detections", f"gt_id must be non-negative, got {g}")
    det["confidence"] = _parse_floats(
        [d.get("confidence") for d in dets], (n,), line_number, "detections"
    )
    det["feature"] = _parse_floats(features, (n, feature_dim), line_number, "detections")
    det["gt_id"] = [-1 if g is None else g for g in gt_id]
    return det


def line_load_frames(path):
    """`load_frames` one line at a time: each line becomes its own arrays as
    it is read (types and structure), values are checked on the joined
    arrays, and the earliest bad line raises."""
    heads, lines, det_chunks, gt_chunks = [], [], [], []
    feature_dim = None
    last_index = {}
    error = None
    try:
        for line_number, doc in _json_lines(path):
            for key in ("frame_index", "camera_id", "detections", "gt_boxes"):
                if key not in doc:
                    raise FrameParseError(line_number, key, "missing")
            dets = _objects(doc["detections"], line_number, "detections")
            gts = _objects(doc["gt_boxes"], line_number, "gt_boxes")
            if dets:
                if feature_dim is None and isinstance(dets[0].get("feature"), list):
                    feature_dim = len(dets[0]["feature"])
                det = _parse_detections(dets, feature_dim, line_number)
            gt = np.empty(len(gts), dtype=GT_DTYPE)
            if gts:
                boxes = [g.get("box") for g in gts]
                gt["box"] = _parse_floats(boxes, (len(gts), 4), line_number, "gt_boxes.box")
            ids = [_parse_int(g.get("id"), line_number, "gt_boxes.id") for g in gts]
            if len(set(ids)) < len(ids):
                raise FrameParseError(line_number, "gt_boxes.id", f"an identity repeats: {ids}")
            gt["id"] = ids
            frame_index = _parse_int(doc["frame_index"], line_number, "frame_index")
            camera_id = _parse_int(doc["camera_id"], line_number, "camera_id")
            if frame_index < 0 or min(ids, default=0) < 0:
                raise FrameParseError(
                    line_number, "frame", f"negative frame_index {frame_index} or identity in {ids}"
                )
            prev = last_index.get(camera_id)
            if prev is not None and frame_index <= prev:
                raise FrameParseError(
                    line_number,
                    "frame_index",
                    f"{frame_index} does not increase over {prev} for camera {camera_id}",
                )
            last_index[camera_id] = frame_index
            if dets:
                det_chunks.append(det)
            gt_chunks.append(gt)
            heads.append((frame_index, camera_id, len(dets), len(gts)))
            lines.append(line_number)
    except FrameParseError as exc:
        error = exc

    det = np.concatenate([np.empty(0, detection_dtype(feature_dim or 0))] + det_chunks)
    gt = np.concatenate([np.empty(0, GT_DTYPE)] + gt_chunks)
    det_lines = np.repeat(lines, [h[2] for h in heads])
    gt_lines = np.repeat(lines, [h[3] for h in heads])
    conf, feature = det["confidence"], det["feature"]
    _check_values(
        (_bad_boxes(det["box"]), det_lines, "detections.box", BOX_RULE, det["box"]),
        (~((conf >= 0) & (conf <= 1)), det_lines, "detections", "confidence not in [0, 1]", conf),
        (~np.isfinite(feature).all(axis=1), det_lines, "detections", "feature not finite", feature),
        (_bad_boxes(gt["box"]), gt_lines, "gt_boxes.box", BOX_RULE, gt["box"]),
    )
    if error is not None:
        raise error
    ends = np.cumsum(np.array([h[2:] for h in heads], dtype=np.int64).reshape(-1, 2), axis=0)
    dets = np.split(det, ends[:-1, 0])
    gts = np.split(gt, ends[:-1, 1])
    return [FrameRecord(h[0], h[1], d, g) for h, d, g in zip(heads, dets, gts)]


def line_load_track_records(path):
    """`load_track_records` one line at a time, checked as `line_load_frames`
    checks frames."""
    rows, lines = [], []
    seen = set()
    error = None
    try:
        for line_number, doc in _json_lines(path):
            box = _parse_floats(doc.get("box"), (4,), line_number, "box")
            key = (
                _parse_int(doc.get("frame_index"), line_number, "frame_index"),
                _parse_int(doc.get("track_id"), line_number, "track_id"),
            )
            if key in seen:
                raise FrameParseError(
                    line_number, "track_id", f"track {key[1]} occurs twice in frame {key[0]}"
                )
            seen.add(key)
            confidence = _parse_floats(doc.get("confidence"), (), line_number, "record")
            rows.append((*key, box, confidence))
            lines.append(line_number)
    except FrameParseError as exc:
        error = exc

    tracks = np.array(rows, dtype=TRACK_DTYPE)
    lines = np.array(lines, dtype=np.int64)
    conf = tracks["confidence"]
    _check_values(
        (_bad_boxes(tracks["box"]), lines, "box", BOX_RULE, tracks["box"]),
        (
            (tracks["frame_index"] < 0) | (tracks["track_id"] < 0) | ~((conf >= 0) & (conf <= 1)),
            lines,
            "record",
            "frame_index and track_id must be non-negative, confidence in [0, 1]",
            tracks,
        ),
    )
    if error is not None:
        raise error
    return tracks
