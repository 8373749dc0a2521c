#!/usr/bin/env python3
"""NeuralTalk-style LSTM image captioning on EIE.

The paper's NT benchmarks come from NeuralTalk: a word-embedding matrix
(NT-We), the LSTM gate matrices (NT-LSTM) and a word decoder (NT-Wd).  This
example lowers a scaled-down NeuralTalk decoder through the whole-network
model layer (``repro.models``):

* the LSTM step becomes a :class:`ModelIR` — the ``stacked`` lowering (the
  paper's 1201 x 2400 NT-LSTM view) drives the caption-generation loop, and
  the ``per_gate`` lowering reports per-gate cycle statistics with one
  ``Session.run_model`` call;
* software applies the gate non-linearities between EIE M x V calls, exactly
  as the paper describes;
* the full-scale NT layer latencies close the loop at the end.

Run with:  python examples/neuraltalk_lstm.py
(set REPRO_EXAMPLE_SCALE to change the size, e.g. 16 for smoke tests)
"""

from __future__ import annotations

import os

import numpy as np

from repro import EIEConfig, Session
from repro.analysis.report import format_table
from repro.hardware.area import chip_energy_j
from repro.models import MatVecNode, ModelIR
from repro.nn.layers import sigmoid, tanh
from repro.nn.lstm import LSTMState
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.generator import WorkloadBuilder
from repro.workloads.models import build_neuraltalk_lstm

NUM_PES = 32        # the paper notes small NT matrices run best on <= 32 PEs
SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "8"))
SEQUENCE_LENGTH = 6
VOCABULARY = 64


def run_captioning_demo(session: Session) -> ModelIR:
    """Generate a short 'caption' (token ids) with the compressed LSTM on EIE."""
    rng = np.random.default_rng(5)
    cell = build_neuraltalk_lstm(scale=SCALE)

    # The stacked lowering computes all eight gate products as one M x V per
    # step (the NT-LSTM benchmark view); the decoder is a one-node chain.
    lstm_model = ModelIR.from_lstm(cell, mode="stacked", name="nt-lstm")
    decoder_weights = rng.normal(0.0, 0.2, size=(VOCABULARY, cell.hidden_size))
    decoder_weights[rng.random(decoder_weights.shape) >= 0.11] = 0.0
    decoder_weights[0, 0] = 0.2
    # A single identity M x V node: logits = W_d h.
    decoder_model = ModelIR(
        [MatVecNode(name="NT-Wd", weight=decoder_weights, activation="identity")],
        name="nt-decoder",
    )
    embedding = rng.normal(0.0, 0.3, size=(VOCABULARY, cell.input_size))

    state = LSTMState.zeros(cell.hidden_size)
    token = 0
    caption = [token]
    total_entries = 0
    hidden = cell.hidden_size
    for _ in range(SEQUENCE_LENGTH):
        inputs = embedding[token]
        stacked_input = np.concatenate([inputs, state.hidden])
        # One EIE M x V computes all eight gate products on the stacked matrix.
        gates = session.run_model("functional", lstm_model, stacked_input)
        total_entries += sum(
            f.total_entries_processed for f in gates.nodes[0].result.functional
        )
        # Software applies the LSTM non-linearities (EIE handles M x V only).
        pre = gates.output
        input_gate = sigmoid(pre[0 * hidden: 1 * hidden])
        forget_gate = sigmoid(pre[1 * hidden: 2 * hidden])
        output_gate = sigmoid(pre[2 * hidden: 3 * hidden])
        candidate = tanh(pre[3 * hidden: 4 * hidden])
        new_cell = forget_gate * state.cell + input_gate * candidate
        state = LSTMState(hidden=output_gate * tanh(new_cell), cell=new_cell)
        # Decoder M x V produces the vocabulary logits; pick the next token.
        logits = session.run_model("functional", decoder_model, state.hidden)
        total_entries += sum(
            f.total_entries_processed for f in logits.nodes[0].result.functional
        )
        token = int(np.argmax(logits.output))
        caption.append(token)

    lstm_layer = session.compress_model(lstm_model, NUM_PES).layer("gates_stacked")
    print("=== Scaled NeuralTalk captioning demo ===")
    print(f"LSTM stacked matrix  : {lstm_layer.rows} x {lstm_layer.cols} "
          f"({lstm_layer.weight_density:.0%} dense)")
    print(f"decoder matrix       : {decoder_weights.shape[0]} x {decoder_weights.shape[1]}")
    print(f"generated token ids  : {caption}")
    print(f"EIE entries processed: {total_entries}")
    return ModelIR.from_lstm(cell, mode="per_gate", name="nt-lstm-gates")


def report_per_gate_timing(session: Session, per_gate_model: ModelIR) -> None:
    """Whole-model cycle statistics, one row per LSTM gate."""
    rng = np.random.default_rng(11)
    inputs = rng.normal(0.0, 0.3, size=per_gate_model.input_size)  # NT Act% = 100%
    run = session.run_model("cycle", per_gate_model, inputs)
    rows = [
        [node.name, f"{node.layer.rows} x {node.layer.cols}",
         f"{node.layer.weight_density:.0%}", node.total_cycles,
         f"{node.latency_s * 1e6:.2f}"]
        for node in run.nodes
    ]
    print(f"\n=== Per-gate LSTM step on EIE ({NUM_PES} PEs) ===")
    print(format_table(["Gate", "Shape", "Weight%", "Cycles", "Latency (us)"], rows))
    print(f"whole step: {run.total_cycles} cycles, {run.latency_s * 1e6:.2f} us, "
          f"{run.energy_j * 1e6:.3f} uJ")


def report_full_scale_latency() -> None:
    """Latency/energy of the full-scale NT layers per caption step."""
    builder = WorkloadBuilder()
    config = EIEConfig(num_pes=NUM_PES)
    rows = []
    total_time = 0.0
    for name in ("NT-We", "NT-LSTM", "NT-Wd"):
        spec = get_benchmark(name)
        workload = builder.build(spec, config.num_pes)
        stats = workload.simulate(config)
        total_time += stats.time_s
        rows.append(
            [name, f"{spec.input_size} -> {spec.output_size}", stats.total_cycles,
             f"{stats.time_s * 1e6:.2f}", f"{stats.load_balance_efficiency:.0%}",
             f"{chip_energy_j(config.num_pes, stats.time_s) * 1e6:.2f}"]
        )
    print("\n=== Full-scale NeuralTalk layers on EIE (32 PEs, 800 MHz) ===")
    print(format_table(
        ["Layer", "Shape", "Cycles", "Latency (us)", "Load bal.", "Energy (uJ)"], rows
    ))
    print(f"\nPer caption step (We + LSTM + Wd): {total_time * 1e6:.1f} us "
          f"-> {1.0 / total_time:.0f} steps/second")


def main() -> None:
    session = Session(config=EIEConfig(num_pes=NUM_PES))
    per_gate_model = run_captioning_demo(session)
    report_per_gate_timing(session, per_gate_model)
    report_full_scale_latency()


if __name__ == "__main__":
    main()
