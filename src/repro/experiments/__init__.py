"""Experiment harness: the SC98 scenario, metrics, and figure rendering."""

from .._exports import lazy_exports

_EXPORTS = {
    ".chaos": ("PROFILES", "ChaosConfig", "ChaosReport", "build_plan",
               "run_chaos", "run_chaos_matrix"),
    ".export": ("headlines_json", "hosts_csv", "rates_csv", "write_results"),
    ".metrics": ("HostCountSampler", "SeriesBundle", "TimeBuckets",
                 "coefficient_of_variation", "collect_rate_series"),
    ".report": ("format_rate", "render_fig2", "render_fig3a", "render_fig3b",
                "render_grid_criteria", "render_headlines",
                "render_series_table", "sparkline"),
    ".sc98": ("SC98Config", "SC98Results", "SC98World", "ServiceCore",
              "build_core", "build_sc98", "clock_to_offset",
              "model_client_factory", "offset_to_clock"),
    ".stats": ("SweepOutcome", "bootstrap_ci", "seed_sweep", "shape_metrics"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
