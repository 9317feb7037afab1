"""One benchmark invocation of the sfnse CLI, in a fresh process.

    python3 perfbench/child.py MODE RESULT SPANS -- CLI-ARGS...

MODE is one of

- ``setup``: import ``sfnse.cli``, parse the ``--config`` file, build the grid
  and the noise model, then stop;
- ``run``: ``sfnse.cli.main(CLI-ARGS)`` and nothing else;
- ``trace``: run the CLI with every public sfnse function traced (see
  tracing.py), then count fixed-point evaluations on the sampled midpoint
  steps, time an FFT pair at the workload's N and write the spans to SPANS.

The child writes a JSON record to RESULT.  Its time stamps come from
``time.monotonic()``, a clock shared by all processes of the machine, so the
parent subtracts the stamp it took just before starting the child.  The exit
code is the CLI's.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _config_text(cli_args: list[str]) -> str:
    return Path(cli_args[cli_args.index("--config") + 1]).read_text(encoding="utf-8")


def main(argv: list[str]) -> int:
    mode, result_path, spans_path, separator, *cli_args = argv
    if separator != "--" or mode not in ("setup", "run", "trace"):
        print("usage: child.py setup|run|trace RESULT SPANS -- CLI-ARGS...", file=sys.stderr)
        return 1
    record: dict = {"mode": mode}
    code = 0
    if mode == "trace":
        t0 = time.perf_counter()
        import sfnse.cli

        record["import_s"] = time.perf_counter() - t0
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = sfnse.cli.main(cli_args)
            record["t_done"] = time.monotonic()
        finally:
            tracer.uninstall()
        spans = tracer.arrays()
        layers = tracing.layer_metrics(spans, tracer.entries, tracer.nonconv, tracing.count_fp_evals(tracer.midpoint_samples))
        config = sfnse.config.parse_config(_config_text(cli_args))
        layers["spectral.fft_pair_us"] = tracing.fft_pair_us(config.grid_a, config.grid_b, config.grid_n)
        layers["cli.import_s"] = record["import_s"]
        record["layers"] = layers
        record["spans"] = len(spans["kind"])

        import numpy as np

        np.savez(spans_path, **spans)
    elif mode == "run":
        import sfnse.cli

        code = sfnse.cli.main(cli_args)
        record["t_done"] = time.monotonic()
    else:
        import sfnse.cli
        from sfnse.config import parse_config
        from sfnse.noise import build_noise_model
        from sfnse.spectral import build_grid

        config = parse_config(_config_text(cli_args))
        grid = build_grid(config.grid_a, config.grid_b, config.grid_n)
        build_noise_model(config.noise_k, grid, config.epsilon, config.noise_profile)
        record["t_setup"] = time.monotonic()
    record["exit_code"] = code
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
