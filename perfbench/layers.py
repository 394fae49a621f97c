"""Which program functions the traced run wraps, and the per-layer metrics
computed from the spans.

Every name below is rebound in the module that looks it up at call time.
Per-round figures are totals over the traced rounds divided by their number.
"""

from __future__ import annotations

from spans import Tracer, count_graph

# JSON the CLI writes beside its primary outputs; their time stays in cli.self
SIDE_OUTPUTS = (".manifest.json", ".stats.json")


def install(tr: Tracer) -> None:
    import chdzdt.cli as cli
    import chdzdt.encoder as encoder
    import chdzdt.evalsuite.embedder as embedder
    import chdzdt.evalsuite.metrics as metrics
    import chdzdt.evalsuite.obfuscate as obfuscate
    import chdzdt.evalsuite.probe as probe
    import chdzdt.evalsuite.taggers as taggers
    import chdzdt.preprocess as preprocess
    import chdzdt.pretrain as pretrain
    import chdzdt.tensor as tensor

    # chdzdt.tensor
    tr.wrap(tensor.Tensor, "backward", "tensor.backward")
    tr.wrap(tensor.Adam, "step", "tensor.adam_step")
    tr.wrap(tensor.Tensor, "matmul", "tensor.matmul")
    tr.wrap(tensor.Tensor, "__matmul__", "tensor.matmul")
    for fn in ("layer_norm", "softmax", "gelu"):
        tr.wrap(encoder, fn, f"tensor.{fn}")
    for fn in ("softmax_ce", "bce_multilabel"):
        tr.wrap(tensor, fn, "tensor.loss")
    tr.wrap(tensor, "gru_cell", "tensor.gru_cell")

    # chdzdt.encoder
    def forward_post(args, out):
        rows = len(args[1])
        tr.count("forward_rows", rows)
        if tr.parent_name() == "encoder.word_embedding":
            tr.count("inference_words", rows)
            tr.count("inference_nodes", count_graph(out))

    for mod in (encoder, pretrain, taggers):
        tr.wrap(mod, "forward_batch", "encoder.forward_batch",
                post=forward_post)
    tr.wrap(embedder, "word_embedding", "encoder.word_embedding")
    tr.wrap(embedder, "load_checkpoint", "encoder.checkpoint_load")
    tr.wrap(cli, "save_checkpoint", "encoder.checkpoint_save")

    # chdzdt.chartok
    for mod in (encoder, pretrain, taggers):
        tr.wrap(mod, "encode_word", "chartok.encode_word")

    # chdzdt.preprocess
    tr.wrap(cli, "build_lexicon", "preprocess.build_lexicon")
    tr.wrap(preprocess, "normalize_text", "preprocess.normalize_text")
    for fn, stage in (("normalize_emojis", "emojis"),
                      ("normalize_chars", "chars"),
                      ("cap_elongation", "elongation"),
                      ("fix_spacing", "spacing"),
                      ("strip_diacritics", "diacritics")):
        tr.wrap(preprocess, fn, f"preprocess.stage.{stage}")

    def region_post(args, keep):
        if not keep:
            tr.count("lines_dropped")

    tr.wrap(preprocess, "region_filter", "preprocess.region_filter",
            post=region_post)

    # chdzdt.pretrain
    tr.wrap(cli, "train", "pretrain.train")
    tr.wrap(pretrain, "mask_batch", "pretrain.mask_batch")

    def loss_post(args, out):
        tr.sample("graph_nodes", count_graph([out[0]]))

    tr.wrap(pretrain, "batch_loss", "pretrain.batch_loss", post=loss_post)

    # chdzdt.evalsuite
    def embed_pre(args):
        self, word = args[0], args[1]
        if word in getattr(self, "_cache", ()):
            tr.count("embed_hits")

    tr.wrap(embedder.CheckpointEmbedder, "embed", "evalsuite.embed",
            pre=embed_pre)
    tr.wrap(metrics, "kmeans", "evalsuite.kmeans")
    tr.wrap(obfuscate, "kmeans", "evalsuite.kmeans")
    tr.wrap(metrics, "silhouette", "evalsuite.silhouette")
    tr.wrap(obfuscate, "obfuscate", "evalsuite.obfuscate")
    tr.wrap(probe, "stratified_split", "evalsuite.stratified_split")
    tr.wrap(taggers, "stratified_split", "evalsuite.stratified_split")
    tr.wrap(cli, "probe_train", "evalsuite.probe_train")
    tr.wrap(cli, "compose_fit", "evalsuite.compose_fit")
    for fn in ("cluster_report", "noise_report", "similarity_corr",
               "compose_eval"):
        tr.wrap(cli, fn, f"evalsuite.{fn}")

    def tagger_post(args, report):
        tr.count("tagger_epochs", report["epochs_run"])

    for fn in ("morph_tagger", "pos_tagger", "sentiment_classifier"):
        tr.wrap(cli, fn, "evalsuite.tagger", post=tagger_post)

    # chdzdt.cli
    tr.wrap(cli, "write_lexicon", "cli.write")
    tr.wrap(cli, "write_embeddings_tsv", "cli.write")
    tr.wrap(cli, "_write_json", "cli.write",
            when=lambda args: not str(args[0]).endswith(SIDE_OUTPUTS))
    tr.wrap(cli, "main", "cli.main")


# name -> unit, better; the order is the order of the report
METRICS = {
    "tensor.graph_nodes_per_step": ("count", "lower"),
    "tensor.backward_ms_per_step": ("ms", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "tensor.adam_ms_per_step": ("ms", "lower"),
    "tensor.layer_norm_ms": ("ms", "lower"),
    "tensor.softmax_ms": ("ms", "lower"),
    "tensor.gelu_ms": ("ms", "lower"),
    "tensor.loss_ms": ("ms", "lower"),
    "tensor.matmul_ms": ("ms", "lower"),
    "tensor.gru_cell_ms": ("ms", "lower"),
    "tensor.gru_cell_calls": ("count", "lower"),
    "encoder.forward_batch_ms": ("ms", "lower"),
    "encoder.forward_batch_calls": ("count", "lower"),
    "encoder.rows_per_forward": ("count", "higher"),
    "encoder.inference_graph_nodes_per_word": ("count", "lower"),
    "encoder.checkpoint_load_ms": ("ms", "lower"),
    "encoder.checkpoint_save_ms": ("ms", "lower"),
    "chartok.encode_word_calls": ("count", "lower"),
    "chartok.encode_word_us": ("us", "lower"),
    "preprocess.normalize_ms_per_line": ("ms", "lower"),
    "preprocess.sweeps_per_line": ("ratio", "lower"),
    "preprocess.stage_ms.emojis": ("ms", "lower"),
    "preprocess.stage_ms.chars": ("ms", "lower"),
    "preprocess.stage_ms.elongation": ("ms", "lower"),
    "preprocess.stage_ms.spacing": ("ms", "lower"),
    "preprocess.stage_ms.diacritics": ("ms", "lower"),
    "preprocess.region_filter_ms": ("ms", "lower"),
    "preprocess.lines_dropped": ("count", "lower"),
    "pretrain.mask_batch_ms_per_step": ("ms", "lower"),
    "pretrain.batch_loss_ms_per_step": ("ms", "lower"),
    "pretrain.steps": ("count", "lower"),
    "evalsuite.embed_calls": ("count", "lower"),
    "evalsuite.embed_cache_hit_ratio": ("ratio", "higher"),
    "evalsuite.kmeans_ms": ("ms", "lower"),
    "evalsuite.silhouette_ms": ("ms", "lower"),
    "evalsuite.obfuscate_ms": ("ms", "lower"),
    "evalsuite.stratified_split_ms": ("ms", "lower"),
    "evalsuite.probe_train_ms": ("ms", "lower"),
    "evalsuite.compose_fit_ms": ("ms", "lower"),
    "evalsuite.tagger_epochs_run": ("count", "lower"),
    "evalsuite.tagger_epoch_ms": ("ms", "lower"),
    "cli.write_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tr: Tracer, rounds: int, overhead_ms: float) -> dict:
    s = tr.summary()

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def total(name):
        return s.get(name, {}).get("total_ms", 0.0)

    def under_train(name):
        ms = [(sp[2] - sp[1]) * 1e3 for i, sp in enumerate(tr.spans)
              if sp[0] == name and tr.under(i, "pretrain.train")]
        return _ratio(sum(ms), len(ms))

    c = tr.counts
    # time-weighted: the BiGRU epochs outweigh the tag task's 1 ms ones
    gaps = tr.epoch_gaps_ms("evalsuite.tagger", "tensor.adam_step")
    steps = len(tr.samples.get("graph_nodes", ()))
    v = {
        "tensor.graph_nodes_per_step":
            _ratio(sum(tr.samples.get("graph_nodes", ())), steps),
        "tensor.backward_ms_per_step": under_train("tensor.backward"),
        "tensor.backward_ms": total("tensor.backward") / rounds,
        "tensor.adam_ms_per_step": under_train("tensor.adam_step"),
        "tensor.layer_norm_ms": total("tensor.layer_norm") / rounds,
        "tensor.softmax_ms": total("tensor.softmax") / rounds,
        "tensor.gelu_ms": total("tensor.gelu") / rounds,
        "tensor.loss_ms": total("tensor.loss") / rounds,
        "tensor.matmul_ms": total("tensor.matmul") / rounds,
        "tensor.gru_cell_ms": total("tensor.gru_cell") / rounds,
        "tensor.gru_cell_calls": calls("tensor.gru_cell") / rounds,
        "encoder.forward_batch_ms": total("encoder.forward_batch") / rounds,
        "encoder.forward_batch_calls": calls("encoder.forward_batch") / rounds,
        "encoder.rows_per_forward":
            _ratio(c.get("forward_rows", 0), calls("encoder.forward_batch")),
        "encoder.inference_graph_nodes_per_word":
            _ratio(c.get("inference_nodes", 0), c.get("inference_words", 0)),
        "encoder.checkpoint_load_ms":
            _ratio(total("encoder.checkpoint_load"),
                   calls("encoder.checkpoint_load")),
        "encoder.checkpoint_save_ms":
            _ratio(total("encoder.checkpoint_save"),
                   calls("encoder.checkpoint_save")),
        "chartok.encode_word_calls": calls("chartok.encode_word") / rounds,
        "chartok.encode_word_us":
            1e3 * _ratio(total("chartok.encode_word"),
                         calls("chartok.encode_word")),
        "preprocess.normalize_ms_per_line":
            _ratio(total("preprocess.normalize_text"),
                   calls("preprocess.normalize_text")),
        "preprocess.sweeps_per_line":
            _ratio(calls("preprocess.stage.emojis"),
                   calls("preprocess.normalize_text")),
        "preprocess.region_filter_ms":
            total("preprocess.region_filter") / rounds,
        "preprocess.lines_dropped": c.get("lines_dropped", 0) / rounds,
        "pretrain.mask_batch_ms_per_step":
            _ratio(total("pretrain.mask_batch"), calls("pretrain.mask_batch")),
        "pretrain.batch_loss_ms_per_step":
            _ratio(total("pretrain.batch_loss"), calls("pretrain.batch_loss")),
        "pretrain.steps": steps / rounds,
        "evalsuite.embed_calls": calls("evalsuite.embed") / rounds,
        "evalsuite.embed_cache_hit_ratio":
            _ratio(c.get("embed_hits", 0), calls("evalsuite.embed")),
        "evalsuite.kmeans_ms": total("evalsuite.kmeans") / rounds,
        "evalsuite.silhouette_ms": total("evalsuite.silhouette") / rounds,
        "evalsuite.obfuscate_ms": total("evalsuite.obfuscate") / rounds,
        "evalsuite.stratified_split_ms":
            total("evalsuite.stratified_split") / rounds,
        "evalsuite.probe_train_ms": total("evalsuite.probe_train") / rounds,
        "evalsuite.compose_fit_ms": total("evalsuite.compose_fit") / rounds,
        "evalsuite.tagger_epochs_run": c.get("tagger_epochs", 0) / rounds,
        "evalsuite.tagger_epoch_ms": _ratio(sum(gaps), len(gaps)),
        "cli.write_ms": total("cli.write") / rounds,
        "cli.self_ms": s.get("cli.main", {}).get("self_ms", 0.0) / rounds,
        "trace.overhead_ms": overhead_ms,
    }
    for stage in ("emojis", "chars", "elongation", "spacing", "diacritics"):
        v[f"preprocess.stage_ms.{stage}"] = \
            total(f"preprocess.stage.{stage}") / rounds
    return {k: v[k] for k in METRICS}
