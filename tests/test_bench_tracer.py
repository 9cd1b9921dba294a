import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs():
    # The benchmark's tracer wraps library functions by name, so a public
    # name it needs that goes missing fails here rather than in a run.
    code = ("import sys; sys.path[:0] = sys.argv[1:]\n"
            "import spans\n"
            "print(spans.install(spans.Tracer()))")
    result = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0
