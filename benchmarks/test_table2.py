"""Table 2 — pre-training saves fine-tuning data and compute (case 1).

Paper values (MSE ×10⁻³ / training time):

    | Pre-trained, decoder only, full data | 0.033 | 8h45 |
    | Pre-trained, decoder only, 10% data  | 0.037 | 3h45 |
    | From scratch, full NTT, full data    | 0.036 | 26h  |
    | From scratch, full NTT, 10% data     | 0.118 | 8h40 |

Expected shape: pre-trained + decoder-only on 10% data performs about as
well as from-scratch on the full dataset, at a fraction of the training
time; from-scratch on 10% is clearly worse.
"""

from __future__ import annotations

from benchmarks.conftest import save_results
from repro.core.pipeline import format_rows, run_table2


def test_table2_training_resource_savings(scale, experiment):
    rows = run_table2(experiment)
    save_results("table2", {"rows": rows})
    print("\nTable 2 (delay MSE s^2 x1e-3, fine-tuning wall time s):")
    print(format_rows(rows))

    # Decoder-only fine-tuning is much cheaper than full training on the
    # same data (paper: 8h45 vs 26h).  Holds at every scale because the
    # frozen encoder cuts the backward pass short.
    assert (
        rows["pretrained_full"]["training_time_s"]
        < rows["scratch_full"]["training_time_s"]
    )
    # Pre-trained on 10% is cheaper than from-scratch on 100% (the
    # paper's ~7x saving argument).
    assert (
        rows["pretrained_10pct"]["training_time_s"]
        < rows["scratch_full"]["training_time_s"]
    )

    if scale.name == "smoke":
        return  # smoke scale validates plumbing, not learning quality

    # From scratch degrades when data shrinks; pre-trained degrades less
    # in absolute terms (paper: 0.033->0.037 vs 0.036->0.118).
    pretrained_gap = (
        rows["pretrained_10pct"]["delay_mse"] - rows["pretrained_full"]["delay_mse"]
    )
    scratch_gap = rows["scratch_10pct"]["delay_mse"] - rows["scratch_full"]["delay_mse"]
    assert pretrained_gap <= scratch_gap + 1e-9
