"""Registry of the fourteen Inncabs benchmarks.

Each benchmark's module is imported on the first lookup of its name, so
a process pays only for the benchmarks it runs (``sparselu`` alone
pulls in ``scipy.linalg``).
"""

from __future__ import annotations

from importlib import import_module

from repro.inncabs.base import Benchmark

#: Benchmark name -> its class in module ``repro.inncabs.<name>``.
_CLASSES: dict[str, str] = {
    "alignment": "AlignmentBenchmark",
    "fft": "FftBenchmark",
    "fib": "FibBenchmark",
    "floorplan": "FloorplanBenchmark",
    "health": "HealthBenchmark",
    "intersim": "IntersimBenchmark",
    "nqueens": "NQueensBenchmark",
    "pyramids": "PyramidsBenchmark",
    "qap": "QapBenchmark",
    "round": "RoundBenchmark",
    "sort": "SortBenchmark",
    "sparselu": "SparseLuBenchmark",
    "strassen": "StrassenBenchmark",
    "uts": "UtsBenchmark",
}
_BENCHMARKS: dict[str, Benchmark] = {}


def available_benchmarks() -> list[str]:
    """Names of all fourteen benchmarks (alphabetical); imports none of them."""
    return sorted(_CLASSES)


def get_benchmark(name: str) -> Benchmark:
    """Look a benchmark up by name, importing its module on first use.

    Raises ``KeyError`` listing valid names on miss.
    """
    bench = _BENCHMARKS.get(name)
    if bench is None:
        try:
            class_name = _CLASSES[name]
        except KeyError:
            raise KeyError(
                f"unknown benchmark {name!r}; available: {', '.join(available_benchmarks())}"
            ) from None
        module = import_module(f"repro.inncabs.{name}")
        bench = _BENCHMARKS[name] = getattr(module, class_name)()
    return bench
