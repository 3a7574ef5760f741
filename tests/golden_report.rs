//! Golden-report regression tests for the hot-path optimizations.
//!
//! The optimization contract is byte identity: incremental accounting,
//! ordered index sets, dense paging tables and buffer reuse may change
//! *when* work happens, never *what* comes out. These tests pin the
//! exact report bytes produced by the pre-optimization code (captured
//! from the release CLI at the seed grids below) and fail on any drift —
//! a float summed in a different order, a tie broken toward a different
//! host, a column padded differently.
//!
//! Goldens live in `tests/golden/` and were captured with `--jobs 2` to
//! also lock the parallel-collection path. Regenerate them only for an
//! intentional output change, with a note in the commit message:
//!
//! ```text
//! ZL_DC_SERVERS=48 ZL_DC_DAYS=1 zombieland-cli experiment fig10 --jobs 2
//! ZL_SCALE=0.04    zombieland-cli experiment table1 --jobs 2
//! ```
//!
//! `golden/fig9.txt` pins [`experiments::figure9`] with each duration
//! rendered as its exact bit pattern (the CLI table rounds to 0.1 s);
//! [`render_figure9_bits`] below is the capture format.

use zombieland_bench::experiments;

/// Fig. 10 at the 48-server × 1-day grid renders the exact pre-change
/// bytes.
#[test]
fn figure10_bytes_match_prechange_golden() {
    let trace = experiments::fig10_trace(48, 1, 11);
    let modified = trace.modified();
    let groups = experiments::figure10_grid(&trace, &modified, 2);
    let rendered = experiments::render_figure10(&groups);
    let golden = include_str!("golden/fig10_48x1.txt");
    assert_eq!(
        rendered, golden,
        "Fig. 10 report bytes drifted from the pre-optimization golden"
    );
}

/// Table 1 at scale 0.04 renders the exact pre-change bytes.
#[test]
fn table1_bytes_match_prechange_golden() {
    let rows = experiments::table1_jobs(0.04, 2);
    let rendered = experiments::render_table1(&rows);
    let golden = include_str!("golden/table1_s004.txt");
    assert_eq!(
        rendered, golden,
        "Table 1 report bytes drifted from the pre-optimization golden"
    );
}

/// Fig. 9's series with floats as bit patterns, one WSS ratio a line.
fn render_figure9_bits() -> String {
    experiments::figure9()
        .into_iter()
        .map(|(pct, native, zombie)| {
            format!(
                "wss={pct}% native_s={:#018x} zombiestack_s={:#018x}\n",
                native.to_bits(),
                zombie.to_bits()
            )
        })
        .collect()
}

/// The Fig. 9 migration model renders the exact pinned durations.
#[test]
fn figure9_bytes_match_golden() {
    let golden = include_str!("golden/fig9.txt");
    assert_eq!(
        render_figure9_bits(),
        golden,
        "Fig. 9 migration durations drifted from the golden"
    );
}
