"""Run one benchmark operation in a fresh interpreter.

Usage: python3 bench/child.py OP_JSON RESULT_PATH

The parent times this whole process, from interpreter start to exit. Inside,
the child times the import of the operation's entry module (the set-up cost),
runs the operation, and writes a JSON result: exit code, import time, digest
(library operations) and its own peak RSS. Peak RSS is read from ``VmHWM`` in
the child's own ``/proc/self/status``: ``wait4``/``getrusage`` figures would
carry the launcher's RSS across fork and exec.
"""
import importlib
import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    op_json, result_path = sys.argv[1], sys.argv[2]
    entry = json.loads(op_json)["entry"]
    t0 = time.perf_counter()
    module = importlib.import_module(entry)
    import_s = time.perf_counter() - t0

    from workloads import LIB_OPS, Op

    op = Op.from_json(op_json)
    result = {"import_s": import_s, "digest": None, "check_ok": True}
    if op.is_cli:
        try:
            code = module.main(list(op.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    else:
        prepare, call, check = LIB_OPS[op.lib]
        inputs = prepare(op.params)
        ok, digest = check(inputs, call(inputs))
        result.update(check_ok=ok, digest=digest)
        code = 0
    result["exit"] = code
    result["vmhwm_kb"] = peak_rss_kb()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
