"""E4 — Figure 5: τ plateaus and the notification mechanism's savings.

Regenerates (a) the plateau statistics of the k-truss convergence on the
facebook stand-in and (b) the processed/skipped counts with the notification
mechanism on and off.  The plateau test also records the serial SND
seconds of its instance (``snd_s``, no floor).
"""

from repro.experiments.plateaus import (
    format_notification_savings,
    format_tau_traces,
    run_notification_savings,
    run_tau_traces,
)


def test_fig5_tau_plateaus(benchmark, record_snd_seconds):
    payload = benchmark.pedantic(
        run_tau_traces, args=("fb", 2, 3), rounds=1, iterations=1
    )
    print()
    print(format_tau_traces(payload))
    stats = payload["plateau_stats"][0]
    assert stats["mean_intermediate_plateau"] >= 0.0
    assert stats["mean_final_plateau"] >= 0.0
    record_snd_seconds("fig5_snd", "fb", 2, 3)


def test_fig5_notification_savings(benchmark):
    rows = benchmark.pedantic(
        run_notification_savings, args=("fb", 2, 3), rounds=1, iterations=1
    )
    print()
    print(format_notification_savings(rows))
    on_total = next(
        r for r in rows if r["notification"] == "on" and r["iteration"] == "total"
    )
    off_total = next(
        r for r in rows if r["notification"] == "off" and r["iteration"] == "total"
    )
    assert on_total["processed"] < off_total["processed"]
