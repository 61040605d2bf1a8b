"""One detection run in a fresh process, making the calls the CLI makes.

``detect``:    load_wordlist -> detect_wordlist -> write_report
``detect-xl``: load_wordlist -> detect_scaled   -> write_scaled_report

Only the standard library is imported before the clock starts, so
``setup_s`` covers importing loandetect, parsing the TSV and normalizing
its IPA. With ``--spans`` the run is traced instead: tracing.py wraps the
layers' public functions, the spans are written to that file at the end,
and the intermediate results named in checks.py are verified. The last
line of stdout is one JSON object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Every group runs all max_iterations passes. With the default 1% early
# stop the pass count of a corpus flips between neighbouring values from
# seed to seed, which moves detection time by a quarter or more.
CONFIG = {"convergence_fraction": 0.0}
ALIGN_SAMPLE_EVERY = 97
ALIGN_SAMPLES = 60


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True, help="directory holding the loandetect package")
    ap.add_argument("--input", required=True)
    ap.add_argument("--output", required=True)
    ap.add_argument("--scaled", action="store_true", help="run detect-xl instead of detect")
    ap.add_argument("--spans", help="traced run: write spans here")
    ap.add_argument("--tokens", help="traced run: the generator's tokens, for the checks")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import loandetect

    if not Path(loandetect.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"loandetect imported from {loandetect.__file__}, not {args.src}", file=sys.stderr)
        return 3
    from loandetect import RunConfig, detect_scaled, detect_wordlist, load_wordlist
    from loandetect.wordlist import write_report, write_scaled_report

    tracer = probe = None
    if args.spans:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        probe = _instrument(tracer)
        load_wordlist = tracer.timed("wordlist.load_wordlist", load_wordlist)
        detect_scaled = tracer.timed("crossling.detect_scaled", detect_scaled)
        write_report = tracer.timed("wordlist.write_report", write_report)
        write_scaled_report = tracer.timed("wordlist.write_report", write_scaled_report)

    vocab = load_wordlist(args.input)
    t_loaded = time.perf_counter()

    cfg = RunConfig(**CONFIG)
    # the CLI's report header: the resolved configuration without threads
    meta = {k: v for k, v in cfg.to_flat().items() if k != "threads"}
    extra: dict = {}
    if args.scaled:
        r = detect_scaled(vocab, cfg)
        t_detected = time.perf_counter()
        write_scaled_report(vocab, r.basic, r.comparability, r.composite, r.thresholds,
                            r.predicted, args.output, header_meta=meta)
        extra["fallback_concepts"] = len(r.fallback_concepts)
    else:
        probs, labels, states = detect_wordlist(vocab, cfg)
        t_detected = time.perf_counter()
        write_report(vocab, probs, labels, args.output, header_meta=meta)
    t_written = time.perf_counter()

    out = {
        "setup_s": t_loaded - T_START,
        "detect_s": t_detected - t_loaded,
        "total_s": t_written - T_START,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "entries": len(vocab),
    }
    if tracer is not None:
        out["failures"] = probe.verify(args.tokens, cfg)
        extra["passes"] = probe.passes
        extra["align_pairs"] = len(probe.align_pairs)
        tracer.dump(Path(args.spans), extra)
    print(json.dumps(out))
    return 0


class _Probe:
    """What the traced run keeps for its checks: the first statistics of
    each language group and a fixed sample of alignments."""

    def __init__(self) -> None:
        self.group: str | None = None
        self.first_stats: dict[str, object] = {}
        self.passes = 0
        self.align_calls = 0
        self.align_pairs: set = set()
        self.alignments: list = []

    def detect_before(self, args, kwargs) -> None:
        self.group = args[0].language

    def detect_after(self, args, kwargs, state) -> None:
        self.passes += state.iteration + 1

    def stats_after(self, args, kwargs, stats) -> None:
        self.first_stats.setdefault(self.group, stats)

    def align_after(self, args, kwargs, alignment) -> None:
        self.align_calls += 1
        self.align_pairs.add(tuple(sorted((tuple(args[0]), tuple(args[1])))))
        if self.align_calls % ALIGN_SAMPLE_EVERY == 1 and len(self.alignments) < ALIGN_SAMPLES:
            gap = args[2] if len(args) > 2 else kwargs.get("gap_penalty", 0.5)
            self.alignments.append((args[0], args[1], gap, alignment.pairs))

    def verify(self, tokens_path: str, cfg) -> list[str]:
        from checks import check_alignment, check_statistics, plain_distance

        from loandetect.ipa import GAP, default_inventory

        groups: dict[str, list] = {}
        for language, tokens in json.loads(Path(tokens_path).read_text(encoding="utf-8")):
            groups.setdefault(language, []).append(tuple(tokens))
        failures = []
        if set(self.first_stats) != set(groups):
            failures.append(f"statistics seen for {sorted(self.first_stats)}, groups {sorted(groups)}")
        for language, stats in sorted(self.first_stats.items()):
            failures += check_statistics(
                language, groups.get(language, []), stats, cfg.ngram_min, cfg.ngram_max
            )
        distance = plain_distance(default_inventory().features, GAP)
        for x, y, gap, pairs in self.alignments:
            failures += check_alignment(x, y, gap, pairs, distance, GAP)
        return failures


def _instrument(tracer) -> _Probe:
    """Wrap each layer's public functions under the names their callers use."""
    from loandetect import crossling, features, refiner, wordlist

    probe = _Probe()
    patch = tracer.patch
    patch(wordlist, "tokenize", lambda f: tracer.counted("ipa.tokenize", f))
    patch(features, "word_ngrams",
          lambda f: tracer.counted("features.word_ngrams", f, key=lambda a: tuple(a[0])))
    patch(refiner, "detect", lambda f: tracer.timed(
        "refiner.detect", f, before=probe.detect_before, after=probe.detect_after))
    patch(refiner, "build_statistics", lambda f: tracer.timed(
        "features.build_statistics", f, after=probe.stats_after))
    patch(refiner, "extract_all", lambda f: tracer.timed("features.extract_all", f))
    patch(refiner, "score_all", lambda f: tracer.timed("scoring.score_all", f))
    patch(refiner, "build_pattern_db", lambda f: tracer.timed("refiner.build_pattern_db", f))
    patch(refiner, "pattern_likeness", lambda f: tracer.timed("refiner.pattern_likeness", f))
    patch(crossling, "build_context_model",
          lambda f: tracer.timed("crossling.build_context_model", f))
    patch(crossling, "comparability", lambda f: tracer.timed("crossling.comparability", f))
    patch(crossling, "align", lambda f: tracer.timed(
        "crossling.align", f, after=probe.align_after))
    patch(crossling, "symbol_distance", lambda f: tracer.counted("ipa.symbol_distance", f))
    return probe


if __name__ == "__main__":
    sys.exit(main())
