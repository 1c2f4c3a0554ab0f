"""Run one featherprune command in a fresh process, with the benchmark's hooks.

Usage: python3 perfbench/worker.py JOB.json

The job names the source tree, the command line, whether to trace, and where
to write spans and the peak memory. Every checkpoint the command saves gets a
digest file next to it, so the parent can check the file loads back to exactly
what was saved. The exit code is the command's.
"""

import json
import resource
import sys
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for. The kernel's
    own ``ru_maxrss`` for this process would start from the launcher's peak
    (exec keeps it), so this process's peak is read from ``VmHWM``."""
    status = Path("/proc/self/status").read_text()
    own_kb = int(status.split("VmHWM:")[1].split()[0])
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])
    from featherprune import cli

    import checks
    import tracer

    spans = tracer.Tracer(Path(job["trace_dir"]))
    spans.install(full=job["trace"])
    save = cli.save_checkpoint

    def save_checkpoint(path, records):
        save(path, records)
        Path(str(path) + checks.DIGEST_SUFFIX).write_text(checks.records_digest(records))

    cli.save_checkpoint = save_checkpoint
    code = cli.main(job["argv"])
    spans.dump()
    Path(job["result"]).write_text(json.dumps({"peak_rss_mb": peak_rss_mb()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
