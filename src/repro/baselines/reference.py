"""Published measurements from the paper, used for comparison and validation.

These dictionaries record the numbers the paper reports (Table IV wall-clock
times, Figure 6/7 geometric-mean speedups and energy efficiencies).  They are
*not* used by the models — they are the ground truth that the benchmark
harness (``benchmarks/bench_*.py``) and the shape-checking tests compare the
regenerated numbers against.
"""

from __future__ import annotations

__all__ = [
    "PAPER_TABLE_IV_US",
    "PAPER_SPEEDUP_GEOMEAN",
    "PAPER_ENERGY_EFFICIENCY_GEOMEAN",
    "PAPER_EIE_SPEEDUPS",
    "PAPER_TABLE_V",
]

#: Table IV: wall-clock time in microseconds, batch size 1 unless noted.
#: Keys: platform -> (batch, kernel) -> benchmark -> time in us.
PAPER_TABLE_IV_US: dict[str, dict[tuple[int, str], dict[str, float]]] = {
    "CPU": {
        (1, "dense"): {
            "Alex-6": 7516.2, "Alex-7": 6187.1, "Alex-8": 1134.9,
            "VGG-6": 35022.8, "VGG-7": 5372.8, "VGG-8": 774.2,
            "NT-We": 605.0, "NT-Wd": 1361.4, "NT-LSTM": 470.5,
        },
        (1, "sparse"): {
            "Alex-6": 3066.5, "Alex-7": 1282.1, "Alex-8": 890.5,
            "VGG-6": 3774.3, "VGG-7": 545.1, "VGG-8": 777.3,
            "NT-We": 261.2, "NT-Wd": 437.4, "NT-LSTM": 260.0,
        },
        (64, "dense"): {
            "Alex-6": 318.4, "Alex-7": 188.9, "Alex-8": 45.8,
            "VGG-6": 1056.0, "VGG-7": 188.3, "VGG-8": 45.7,
            "NT-We": 28.7, "NT-Wd": 69.0, "NT-LSTM": 28.8,
        },
        (64, "sparse"): {
            "Alex-6": 1417.6, "Alex-7": 682.1, "Alex-8": 407.7,
            "VGG-6": 1780.3, "VGG-7": 274.9, "VGG-8": 363.1,
            "NT-We": 117.7, "NT-Wd": 176.4, "NT-LSTM": 107.4,
        },
    },
    "GPU": {
        (1, "dense"): {
            "Alex-6": 541.5, "Alex-7": 243.0, "Alex-8": 80.5,
            "VGG-6": 1467.8, "VGG-7": 243.0, "VGG-8": 80.5,
            "NT-We": 65.0, "NT-Wd": 90.1, "NT-LSTM": 51.9,
        },
        (1, "sparse"): {
            "Alex-6": 134.8, "Alex-7": 65.8, "Alex-8": 54.6,
            "VGG-6": 167.0, "VGG-7": 39.8, "VGG-8": 48.0,
            "NT-We": 17.7, "NT-Wd": 41.1, "NT-LSTM": 18.5,
        },
        (64, "dense"): {
            "Alex-6": 19.8, "Alex-7": 8.9, "Alex-8": 5.9,
            "VGG-6": 53.6, "VGG-7": 8.9, "VGG-8": 5.9,
            "NT-We": 3.2, "NT-Wd": 2.3, "NT-LSTM": 2.5,
        },
        (64, "sparse"): {
            "Alex-6": 94.6, "Alex-7": 51.5, "Alex-8": 23.2,
            "VGG-6": 121.5, "VGG-7": 24.4, "VGG-8": 22.0,
            "NT-We": 10.9, "NT-Wd": 11.0, "NT-LSTM": 9.0,
        },
    },
    "mGPU": {
        (1, "dense"): {
            "Alex-6": 12437.2, "Alex-7": 5765.0, "Alex-8": 2252.1,
            "VGG-6": 35427.0, "VGG-7": 5544.3, "VGG-8": 2243.1,
            "NT-We": 1316.0, "NT-Wd": 2565.5, "NT-LSTM": 956.9,
        },
        (1, "sparse"): {
            "Alex-6": 2879.3, "Alex-7": 1256.5, "Alex-8": 837.0,
            "VGG-6": 4377.2, "VGG-7": 626.3, "VGG-8": 745.1,
            "NT-We": 240.6, "NT-Wd": 570.6, "NT-LSTM": 315.0,
        },
        (64, "dense"): {
            "Alex-6": 1663.6, "Alex-7": 2056.8, "Alex-8": 298.0,
            "VGG-6": 2001.4, "VGG-7": 2050.7, "VGG-8": 483.9,
            "NT-We": 87.8, "NT-Wd": 956.3, "NT-LSTM": 95.2,
        },
        (64, "sparse"): {
            "Alex-6": 4003.9, "Alex-7": 1372.8, "Alex-8": 576.7,
            "VGG-6": 8024.8, "VGG-7": 660.2, "VGG-8": 544.1,
            "NT-We": 236.3, "NT-Wd": 187.7, "NT-LSTM": 186.5,
        },
    },
    "EIE": {
        (1, "theoretical"): {
            "Alex-6": 28.1, "Alex-7": 11.7, "Alex-8": 8.9,
            "VGG-6": 28.1, "VGG-7": 7.9, "VGG-8": 7.3,
            "NT-We": 5.2, "NT-Wd": 13.0, "NT-LSTM": 6.5,
        },
        (1, "actual"): {
            "Alex-6": 30.3, "Alex-7": 12.2, "Alex-8": 9.9,
            "VGG-6": 34.4, "VGG-7": 8.7, "VGG-8": 8.4,
            "NT-We": 8.0, "NT-Wd": 13.9, "NT-LSTM": 7.5,
        },
    },
}

#: Figure 6: geometric-mean speedup versus CPU dense at batch 1.
PAPER_SPEEDUP_GEOMEAN: dict[str, float] = {
    "CPU dense": 1.0,
    "CPU compressed": 3.0,
    "GPU dense": 15.0,
    "GPU compressed": 48.0,
    "mGPU dense": 0.6,
    "mGPU compressed": 3.0,
    "EIE": 189.0,
}

#: Per-benchmark EIE speedups over CPU dense at batch 1 (Figure 6, last bar group).
PAPER_EIE_SPEEDUPS: dict[str, float] = {
    "Alex-6": 248.0, "Alex-7": 507.0, "Alex-8": 115.0,
    "VGG-6": 1018.0, "VGG-7": 618.0, "VGG-8": 92.0,
    "NT-We": 63.0, "NT-Wd": 98.0, "NT-LSTM": 60.0,
}

#: Figure 7: geometric-mean energy efficiency versus CPU dense at batch 1.
PAPER_ENERGY_EFFICIENCY_GEOMEAN: dict[str, float] = {
    "CPU dense": 1.0,
    "CPU compressed": 6.0,
    "GPU dense": 7.0,
    "GPU compressed": 23.0,
    "mGPU dense": 9.0,
    "mGPU compressed": 36.0,
    "EIE": 24207.0,
}

#: Table V headline numbers (M x V on AlexNet FC7).
PAPER_TABLE_V: dict[str, dict[str, float]] = {
    "Core i7-5930K": {"throughput_fps": 162, "area_mm2": 356, "power_w": 73,
                      "energy_efficiency_fpj": 2.22},
    "GeForce Titan X": {"throughput_fps": 4115, "area_mm2": 601, "power_w": 159,
                        "energy_efficiency_fpj": 25.9},
    "Tegra K1": {"throughput_fps": 173, "power_w": 5.1, "energy_efficiency_fpj": 33.9},
    "A-Eye": {"throughput_fps": 33, "power_w": 9.63, "energy_efficiency_fpj": 3.43},
    "DaDianNao": {"throughput_fps": 147938, "area_mm2": 67.7, "power_w": 15.97,
                  "energy_efficiency_fpj": 9263},
    "TrueNorth": {"throughput_fps": 1989, "area_mm2": 430, "power_w": 0.18,
                  "energy_efficiency_fpj": 10839},
    "EIE (64PE, 45nm)": {"throughput_fps": 81967, "area_mm2": 40.8, "power_w": 0.59,
                         "energy_efficiency_fpj": 138927},
    "EIE (256PE, 28nm)": {"throughput_fps": 426230, "area_mm2": 63.8, "power_w": 2.36,
                          "energy_efficiency_fpj": 180606},
}
