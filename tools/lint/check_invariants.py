#!/usr/bin/env python3
"""Engine-invariant lints for the STREAMLINE source tree.

These are repo-specific rules that generic tooling (clang-tidy, compiler
warnings) cannot express. Each rule guards an invariant the engine's
performance or correctness story depends on:

  raw-mutex
      All locking goes through the annotated wrappers in
      src/common/mutex.h so Clang thread-safety analysis sees every
      critical section. Raw std::mutex / std::lock_guard /
      std::condition_variable anywhere else is invisible to the analysis.

  unordered-map-hot-path
      Hot-path files must use FlatHashMap (open addressing, no per-node
      allocation) instead of std::unordered_map for per-record lookups.

  record-copy-hot-path
      The data plane is allocation-free per record; Records moving through
      ProcessRecord/Emit chains must be moved, never copied. (Sinks taking
      `const Record&` copy deliberately -- they are outside the hot set.)

  snapshot-nondeterminism
      Snapshot/restore paths must be deterministic: no wall-clock reads, no
      ambient randomness. Monotonic steady_clock timeouts are fine.

  raw-thread
      Every OS thread in the engine is accounted for: workers and the
      timer belong to WorkStealingPool (src/common/thread_pool.cc), and
      the only waived thread is the epoll edge thread of src/net's event
      loop, which keeps socket readiness blocking off the pool.
      Constructing std::thread anywhere else reintroduces unaccounted
      thread-per-X execution, which is exactly what the morsel scheduler
      exists to prevent.

  raw-socket
      Socket creation is confined to src/net/: the network edge wraps
      every descriptor in an owning Fd, makes it non-blocking +
      close-on-exec, and keeps socket IO off the worker pool. A raw
      socket(2)/socketpair(2) call anywhere else reintroduces an
      unaccounted, blocking-by-default fd.

  unsynced-write
      Durability-path files (the WAL and the snapshot stores) must write
      through WalWriter or WriteFileDurable -- fd-based paths that fsync
      before a manifest may reference the bytes. A raw std::ofstream /
      fopen / fwrite there can lose acknowledged checkpoint data on a
      crash: the page cache acks the write long before the disk does.
      Reads (ifstream) are fine; only writes are durability-sensitive.

  virtual-per-record-loop
      The data plane executes batch-at-a-time: one ProcessBatch virtual
      call per operator hop per batch. A loop in a hot-path file that
      dispatches ProcessRecord/DeliverRecord/Emit per iteration reverts to
      per-record dispatch and silently undoes that; such loops must either
      move behind a ProcessBatch override or carry an explicit waiver
      (default fallbacks and the fault-injection path are the sanctioned
      cases).

Waivers: append `lint:allow(<rule>): <reason>` in a comment on the
offending line or the line directly above it. Waivers without a reason are
themselves an error, and so are stale waivers -- an allow comment that no
longer suppresses anything means the code it excused is gone, so the
comment must go too (or the rule regressed and the waiver is hiding it).

Usage: check_invariants.py [--list-waivers]

  --list-waivers   print every lint:allow comment in the tree (file, line,
                   rule, reason) and exit 0 without running the lints.

Exit status: 0 clean, 1 violations, 2 usage/environment error.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src"

# The sanctioned home of raw std::mutex primitives.
MUTEX_HOME = SRC / "common" / "mutex.h"

# The sanctioned home of raw std::thread: the work-stealing pool's workers
# and its timer thread.
THREAD_HOME = {SRC / "common" / "thread_pool.cc",
               SRC / "common" / "thread_pool.h"}

# The sanctioned home of socket creation: the network edge.
NET_DIR = SRC / "net"

# Files on the per-record data path. Per-record lookups and copies here are
# what the paper's single-engine throughput claims rest on.
HOT_PATH_FILES = [
    SRC / "dataflow" / "executor.cc",
    SRC / "dataflow" / "operator.h",
    SRC / "dataflow" / "operators.h",
    SRC / "dataflow" / "operators.cc",
    SRC / "dataflow" / "window_operator.h",
    SRC / "dataflow" / "window_operator.cc",
    SRC / "dataflow" / "temporal_join.h",
    SRC / "dataflow" / "temporal_join.cc",
    SRC / "dataflow" / "events.h",
    SRC / "common" / "spsc_ring.h",
]

# Files on the snapshot/restore path, where nondeterminism breaks
# checkpoint reproducibility.
SNAPSHOT_PATH_PATTERNS = ["*snapshot*", "event_log.*"]

# Files whose writes must be durable before they are acknowledged: the WAL
# itself and the snapshot stores. Writes here go through WalWriter or
# WriteFileDurable (fd + fsync + rename); raw buffered writes are how
# acknowledged checkpoints get lost in a crash.
DURABILITY_PATH_FILES = [
    SRC / "common" / "wal.h",
    SRC / "common" / "wal.cc",
    SRC / "dataflow" / "snapshot.h",
    SRC / "dataflow" / "snapshot.cc",
]

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|condition_variable\w*)\b"
)
UNORDERED_MAP_RE = re.compile(r"\bstd::unordered_(map|set|multimap|multiset)\b")
# Copy-initializing a Record from an lvalue, or handing a named record to
# Emit/push_back without std::move.
RECORD_COPY_RES = [
    re.compile(r"\bRecord\s+\w+\s*=\s*(?!std::move\b|MakeRecord\b|Record\b)"
               r"[A-Za-z_]\w*(\.\w+\(\))?\s*;"),
    re.compile(r"\b(Emit|push_back|emplace_back)\(\s*(record|rec)\s*\)"),
]
NONDETERMINISM_RE = re.compile(
    r"\bstd::chrono::system_clock\b|\bstd::random_device\b|"
    r"(?<![\w:])rand\s*\(|(?<![\w:_])time\s*\(\s*(NULL|nullptr|0)?\s*\)|"
    r"\blocaltime\b|\bgmtime\b"
)
WAIVER_RE = re.compile(r"lint:allow\(([\w-]+)\)(:\s*\S)?")
# std::thread construction or membership; deliberately does not match
# std::this_thread:: utilities (yield/sleep_for are fine anywhere).
RAW_THREAD_RE = re.compile(r"\bstd::thread\b(?!::)")
# socket(2)/socketpair(2) creation calls; member access (x.socket()) and
# identifiers merely containing the word do not match.
RAW_SOCKET_RE = re.compile(r"(?<![\w.>])(socket|socketpair)\s*\(")
# Unsynced write primitives in durability code. ifstream (reads) is fine;
# ofstream, C stdio writes, and fstream opened for writing are not.
UNSYNCED_WRITE_RE = re.compile(
    r"\b(std::)?ofstream\b|\bstd::fstream\b|"
    r"\bfopen\s*\(|\bfwrite\s*\(|\bfputs\s*\(|\bfprintf\s*\(")

# Per-record dispatch inside a loop body. Detected in two parts because the
# loop header and the dispatch usually sit on different lines. Only loops
# that visibly iterate records/batches count; index loops over fields or
# subtasks are not per-record dispatch.
LOOP_HEADER_RE = re.compile(
    r"\b(for|while)\s*\(.*\b([Rr]ecords?|batch|event\.batch)\b")
PER_RECORD_DISPATCH_RE = re.compile(
    r"\b(ProcessRecord|DeliverRecord)\s*\(|->\s*Emit\s*\(")
# How many lines a loop header (and a waiver comment above it) may precede
# the dispatch call by and still be considered the same loop.
LOOP_WINDOW = 5


class WaiverRegistry:
    """Every lint:allow comment in the tree, with usage tracking: a waiver
    that suppresses nothing by the end of the run is stale and reported."""

    def __init__(self):
        # (path, lineno, rule) -> {"has_reason": bool, "used": bool}
        self.entries = {}

    def collect(self, path, lines):
        for i, line in enumerate(lines, 1):
            for m in WAIVER_RE.finditer(line):
                self.entries[(path, i, m.group(1))] = {
                    "has_reason": bool(m.group(2)), "used": False}

    def mark_used(self, path, lineno, rule):
        entry = self.entries.get((path, lineno, rule))
        if entry is not None:
            entry["used"] = True

    def stale(self):
        """Yields (path, lineno, rule) of never-used waivers; missing-reason
        waivers are reported at their violation site instead."""
        for (path, lineno, rule), entry in sorted(
                self.entries.items(), key=lambda kv: (str(kv[0][0]),) + kv[0][1:]):
            if not entry["used"] and entry["has_reason"]:
                yield path, lineno, rule


def read_lines(path):
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def scan_virtual_per_record_loops(path, violations, registry):
    """Flags per-record dispatch calls within LOOP_WINDOW lines of a loop
    header. The waiver may sit on the call line or anywhere in the window
    above it (typically the comment right above the loop header)."""
    lines = read_lines(path)
    rule = "virtual-per-record-loop"
    for i, line in enumerate(lines, 1):
        if not PER_RECORD_DISPATCH_RE.search(line):
            continue
        start = max(0, i - 1 - LOOP_WINDOW)
        window = list(enumerate(lines[start:i], start + 1))
        if not any(LOOP_HEADER_RE.search(w) for _, w in window):
            continue
        waiver = None
        for lineno, text in window + [(i, line)]:
            m = WAIVER_RE.search(text)
            if m and m.group(1) == rule:
                registry.mark_used(path, lineno, rule)
                waiver = "waived" if m.group(2) else "missing-reason"
        if waiver == "waived":
            continue
        if waiver == "missing-reason":
            violations.append(
                (path, i, rule, "waiver has no reason: " + line.strip()))
            continue
        violations.append((path, i, rule, line.strip()))


def waived(rule, path, i, line, prev_line, registry):
    for lineno, text in ((i, line), (i - 1, prev_line)):
        m = WAIVER_RE.search(text)
        if m and m.group(1) == rule:
            registry.mark_used(path, lineno, rule)
            if not m.group(2):
                return "missing-reason"
            return "waived"
    return None


def scan_file(path, rules, violations, registry):
    """rules: list of (rule_name, regex). Appends (path, lineno, rule, line)."""
    lines = read_lines(path)
    prev = ""
    for i, line in enumerate(lines, 1):
        for rule, regex in rules:
            if not regex.search(line):
                continue
            w = waived(rule, path, i, line, prev, registry)
            if w == "waived":
                continue
            if w == "missing-reason":
                violations.append(
                    (path, i, rule, "waiver has no reason: " + line.strip()))
                continue
            violations.append((path, i, rule, line.strip()))
        prev = line


def main():
    list_waivers = False
    for arg in sys.argv[1:]:
        if arg == "--list-waivers":
            list_waivers = True
        else:
            print(f"error: unknown argument '{arg}'", file=sys.stderr)
            print(__doc__, file=sys.stderr)
            return 2
    if not SRC.is_dir():
        print(f"error: {SRC} not found", file=sys.stderr)
        return 2

    registry = WaiverRegistry()
    source_files = [p for p in sorted(SRC.rglob("*"))
                    if p.suffix in (".h", ".cc", ".cpp", ".hpp")]
    for path in source_files:
        registry.collect(path, read_lines(path))

    if list_waivers:
        for (path, lineno, rule), entry in sorted(
                registry.entries.items(),
                key=lambda kv: (str(kv[0][0]),) + kv[0][1:]):
            rel = path.relative_to(REPO)
            suffix = "" if entry["has_reason"] else "  [MISSING REASON]"
            print(f"{rel}:{lineno}: allow({rule}){suffix}")
        return 0

    violations = []

    for path in source_files:
        rules = []
        if path != MUTEX_HOME:
            rules.append(("raw-mutex", RAW_MUTEX_RE))
        if path not in THREAD_HOME:
            rules.append(("raw-thread", RAW_THREAD_RE))
        if NET_DIR not in path.parents:
            rules.append(("raw-socket", RAW_SOCKET_RE))
        scan_file(path, rules, violations, registry)

    for path in HOT_PATH_FILES:
        if not path.is_file():
            print(f"error: hot-path file {path} missing (update the list)",
                  file=sys.stderr)
            return 2
        rules = [("unordered-map-hot-path", UNORDERED_MAP_RE)]
        rules += [("record-copy-hot-path", r) for r in RECORD_COPY_RES]
        scan_file(path, rules, violations, registry)
        scan_virtual_per_record_loops(path, violations, registry)

    for path in DURABILITY_PATH_FILES:
        if not path.is_file():
            print(f"error: durability-path file {path} missing (update the "
                  "list)", file=sys.stderr)
            return 2
        scan_file(path, [("unsynced-write", UNSYNCED_WRITE_RE)], violations,
                  registry)

    snapshot_files = set()
    for pattern in SNAPSHOT_PATH_PATTERNS:
        snapshot_files.update(SRC.rglob(pattern))
    for path in sorted(snapshot_files):
        if path.suffix not in (".h", ".cc", ".cpp", ".hpp"):
            continue
        scan_file(path, [("snapshot-nondeterminism", NONDETERMINISM_RE)],
                  violations, registry)

    for path, lineno, rule in registry.stale():
        violations.append(
            (path, lineno, "stale-waiver",
             f"allow({rule}) no longer suppresses anything; remove it"))

    if violations:
        for path, lineno, rule, line in violations:
            rel = path.relative_to(REPO)
            print(f"{rel}:{lineno}: [{rule}] {line}")
        print(f"\n{len(violations)} invariant violation(s). Fix them or add "
              "'lint:allow(<rule>): <reason>' where the pattern is "
              "intentional.", file=sys.stderr)
        return 1
    print("engine invariants clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
