//! # rtr-bench — regenerating the paper's evaluation
//!
//! [`table`] regenerates any table of the paper by number, [`figure`] any
//! figure. Each table comes back as a rendered [`TextTable`] plus a
//! machine-readable [`TableResult`] that the `tables` binary serialises
//! for EXPERIMENTS.md. The speedup tables (3–5 and 9–11) share one
//! builder: a list of labelled requests, each timed in software and in
//! hardware by `rtr_apps::request::compare`.
//!
//! Two kinds of benchmarks live in this crate:
//!
//! * the **paper harness** (this library + the `tables` binary) reports
//!   *simulated* time — the paper's metric;
//! * the **host-side benches** under `benches/` measure the simulator's
//!   own throughput (how fast the reproduction runs), which is the
//!   conventional meaning of `cargo bench`.

pub mod claims;
pub mod lint;
pub mod scenario;

use rtr_apps::harness::Comparison;
use rtr_apps::imaging::{self, Task};
use rtr_apps::request::{compare, Driver};
use rtr_apps::{patmatch, sha1, Request, Response, Work};
use rtr_core::measure::{self, TransferKind};
use rtr_core::{build_system, SystemKind};
use vp2_sim::table::{fmt_sig, TextTable};
use vp2_sim::{Json, SimTime, SplitMix64};

/// Scaling knob: `Quick` for tests/CI, `Full` for the printed tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small inputs (seconds).
    Quick,
    /// Paper-like input sweeps.
    Full,
}

/// One measured row in machine-readable form.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Row label (workload / transfer kind / size).
    pub label: String,
    /// Software time (µs), if applicable.
    pub sw_us: Option<f64>,
    /// Hardware time (µs), if applicable.
    pub hw_us: Option<f64>,
    /// Data-preparation time (µs), when reported separately.
    pub prep_us: Option<f64>,
    /// Speedup (sw / hw), if applicable.
    pub speedup: Option<f64>,
    /// Free-form metric value (per-transfer µs, slices, …).
    pub value: Option<f64>,
}

/// A regenerated table.
#[derive(Debug, Clone)]
pub struct TableResult {
    /// Paper table number (1..=12).
    pub number: u32,
    /// Table title.
    pub title: String,
    /// Rows.
    pub rows: Vec<MeasuredRow>,
    /// Rendered text form.
    pub rendered: String,
}

impl MeasuredRow {
    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("label", self.label.as_str())
            .field("sw_us", self.sw_us)
            .field("hw_us", self.hw_us)
            .field("prep_us", self.prep_us)
            .field("speedup", self.speedup)
            .field("value", self.value)
    }
}

impl TableResult {
    /// Machine-readable form (what `tables --json` writes).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("number", self.number)
            .field("title", self.title.as_str())
            .field(
                "rows",
                Json::Arr(self.rows.iter().map(MeasuredRow::to_json).collect()),
            )
            .field("rendered", self.rendered.as_str())
    }
}

fn us(t: SimTime) -> f64 {
    t.as_us_f64()
}

fn cmp_row(label: impl Into<String>, c: &Comparison) -> MeasuredRow {
    MeasuredRow {
        label: label.into(),
        sw_us: Some(us(c.sw)),
        hw_us: Some(us(c.hw)),
        prep_us: if c.prep.is_zero() {
            None
        } else {
            Some(us(c.prep))
        },
        speedup: Some(c.speedup()),
        value: None,
    }
}

/// Tables 1 and 6: resource usage, including measured module areas.
pub fn table_resources(kind: SystemKind) -> TableResult {
    let number = match kind {
        SystemKind::Bit32 => 1,
        SystemKind::Bit64 => 6,
    };
    let mut t = rtr_core::resources::resource_table(kind);
    // Append the measured areas of the actual dynamic modules.
    let mut rows: Vec<MeasuredRow> = rtr_core::resources::inventory(kind)
        .iter()
        .map(|r| MeasuredRow {
            label: r.module.to_string(),
            sw_us: None,
            hw_us: None,
            prep_us: None,
            speedup: None,
            value: Some(f64::from(r.slices)),
        })
        .collect();
    let region = kind.region();
    let modules: Vec<(String, usize)> = {
        let mut v = vec![(
            "  (module) patmatch8x8".to_string(),
            patmatch::patmatch_component(region.width(), region.height()).slices_used(),
        )];
        for task in IMAGING_TASKS {
            let nl = imaging::imaging_netlist(task);
            v.push((format!("  (module) {}", nl.name), nl.slice_estimate()));
        }
        if kind == SystemKind::Bit64 {
            let nl = sha1::sha1_netlist();
            v.push(("  (module) sha1-unroll8".to_string(), nl.slice_estimate()));
        }
        v
    };
    for (name, slices) in modules {
        t.row(&[
            name.clone(),
            slices.to_string(),
            format!(
                "{:.1}",
                100.0 * slices as f64 / f64::from(kind.device().slice_count())
            ),
            "-".to_string(),
        ]);
        rows.push(MeasuredRow {
            label: name,
            sw_us: None,
            hw_us: None,
            prep_us: None,
            speedup: None,
            value: Some(slices as f64),
        });
    }
    TableResult {
        number,
        title: t.title().to_string(),
        rows,
        rendered: t.render(),
    }
}

/// Table 2 / 7: program-controlled transfer times.
pub fn table_transfers_cpu(kind: SystemKind, effort: Effort) -> TableResult {
    let number = match kind {
        SystemKind::Bit32 => 2,
        SystemKind::Bit64 => 7,
    };
    let n = match effort {
        Effort::Quick => 1024,
        Effort::Full => 16 * 1024,
    };
    let title = match kind {
        SystemKind::Bit32 => {
            "Table 2. Measured times for data transfers between dynamic region and external memory (32 bit)"
        }
        SystemKind::Bit64 => {
            "Table 7. Measured times for 32-bit data transfers between dynamic region and external memory (CPU controlled)"
        }
    };
    let mut t = TextTable::new(title, &["transfer type", "avg time per transfer (us)"]);
    let mut rows = Vec::new();
    for k in [
        TransferKind::Write,
        TransferKind::Read,
        TransferKind::WriteRead,
    ] {
        let mut m = build_system(kind);
        let per = measure::program_transfer_time(&mut m, k, n);
        t.row(&[k.label().to_string(), fmt_sig(us(per))]);
        rows.push(MeasuredRow {
            label: k.label().to_string(),
            sw_us: None,
            hw_us: None,
            prep_us: None,
            speedup: None,
            value: Some(us(per)),
        });
    }
    TableResult {
        number,
        title: title.to_string(),
        rows,
        rendered: t.render(),
    }
}

/// Table 8: DMA-controlled 64-bit transfers.
pub fn table_transfers_dma(effort: Effort) -> TableResult {
    let n = match effort {
        Effort::Quick => 2048,
        Effort::Full => 16 * 1024,
    };
    let title = "Table 8. Measured times for 64-bit data transfers between dynamic region and external memory (DMA-controlled)";
    let mut t = TextTable::new(title, &["transfer type", "avg time per transfer (us)"]);
    let mut rows = Vec::new();
    for k in [
        TransferKind::Write,
        TransferKind::Read,
        TransferKind::WriteRead,
    ] {
        let mut m = build_system(SystemKind::Bit64);
        let per = measure::dma_transfer_time(&mut m, k, n);
        let label = match k {
            TransferKind::WriteRead => "block-interleaved write/read (2047-deep FIFO)".to_string(),
            other => other.label().to_string(),
        };
        t.row(&[label.clone(), fmt_sig(us(per))]);
        rows.push(MeasuredRow {
            label,
            sw_us: None,
            hw_us: None,
            prep_us: None,
            speedup: None,
            value: Some(us(per)),
        });
    }
    TableResult {
        number: 8,
        title: title.to_string(),
        rows,
        rendered: t.render(),
    }
}

/// The 8×8 pattern every pattern-matching measurement slides.
const PATTERN: [u8; 8] = [0xA5, 0x3C, 0x7E, 0x81, 0x42, 0x99, 0x18, 0xE7];

/// The three imaging tasks, in table order.
const IMAGING_TASKS: [Task; 3] = [Task::Brightness, Task::Blend, Task::Fade];

/// `len` bytes from a SplitMix64 stream seeded with `len`.
fn seeded_bytes(len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    SplitMix64::new(len as u64).fill_bytes(&mut v);
    v
}

/// Tables 3–5 and 9–11: one request per row, each timed in software and
/// in hardware on fresh machines of the table's system ([`compare`]).
fn speedup_table(number: u32, effort: Effort) -> TableResult {
    let kind = if number < 6 {
        SystemKind::Bit32
    } else {
        SystemKind::Bit64
    };
    let sizes = |quick: &'static [usize], full: &'static [usize]| match effort {
        Effort::Quick => quick,
        Effort::Full => full,
    };
    let keyed = |sizes: &[usize], work: fn(Vec<u8>) -> Work| -> Vec<(String, Work)> {
        sizes
            .iter()
            .map(|&s| (format!("{s} B"), work(seeded_bytes(s))))
            .collect()
    };
    let (title, input, rows) = match number {
        3 | 9 => (
            if number == 3 {
                "Table 3. Results for pattern matching in binary images (32 bit)"
            } else {
                "Table 9. Results for pattern matching in binary images (64 bit)"
            },
            "image",
            sizes(&[64], &[64, 128, 256])
                .iter()
                .map(|&s| {
                    let image = patmatch::BinaryImage::random(s, s, s as u64);
                    let pattern = PATTERN;
                    (format!("{s}x{s}"), Work::PatMatch { image, pattern })
                })
                .collect(),
        ),
        4 | 10 => (
            if number == 4 {
                "Table 4. Results for hash function (32 bit)"
            } else {
                "Table 10. Results for a hash function implementation (64 bit)"
            },
            "key size",
            keyed(sizes(&[4096], &[256, 4096, 65536]), |key| Work::Jenkins {
                key,
                initval: 0x1234_5678,
            }),
        ),
        11 => (
            "Table 11. Results for SHA-1 implementation",
            "message size",
            keyed(sizes(&[64, 2048], &[64, 1024, 16384, 262_144]), |msg| {
                Work::Sha1 { msg }
            }),
        ),
        5 => (
            "Table 5. Speedups for simple image processing tasks (32 bit)",
            "task",
            IMAGING_TASKS
                .iter()
                .map(|&task| {
                    let (a, b, param) = imaging_inputs(task, effort);
                    (
                        task.label().to_string(),
                        Work::Imaging { task, a, b, param },
                    )
                })
                .collect(),
        ),
        other => panic!("table {other} is not a speedup table"),
    };
    let mut t = TextTable::new(title, &[input, "sw (us)", "hw/sw (us)", "speedup"]);
    let rows = rows
        .into_iter()
        .map(|(label, work)| {
            let c = compare(kind, &Request::from(work));
            t.row(&[
                label.clone(),
                fmt_sig(us(c.sw)),
                fmt_sig(us(c.hw)),
                fmt_sig(c.speedup()),
            ]);
            cmp_row(label, &c)
        })
        .collect();
    TableResult {
        number,
        title: title.to_string(),
        rows,
        rendered: t.render(),
    }
}

/// The inputs tables 5 and 12 measure `task` on.
fn imaging_inputs(task: Task, effort: Effort) -> (Vec<u8>, Vec<u8>, i32) {
    let n = match effort {
        Effort::Quick => 4096,
        Effort::Full => 65536,
    };
    imaging::paper_inputs(task, n, n as u64)
}

/// Table 12: image-processing on the 64-bit DMA path, with the data
/// preparation column.
pub fn table_imaging64(effort: Effort) -> TableResult {
    let title = "Table 12. Results for simple image processing tasks (64 bit)";
    let mut t = TextTable::new(
        title,
        &[
            "task",
            "sw (us)",
            "hw total (us)",
            "data preparation (us)",
            "speedup",
        ],
    );
    let mut rows = Vec::new();
    for task in IMAGING_TASKS {
        let (a, b, param) = imaging_inputs(task, effort);
        let mut m = build_system(SystemKind::Bit64);
        let (hw, prep, got) = imaging::dma_run(&mut m, task, &a, &b, param);
        let req = Request::from(Work::Imaging { task, a, b, param });
        let want = req.reference();
        assert_eq!(Response::Image(got), want, "dma hw {task:?}");
        let mut m = build_system(SystemKind::Bit64);
        let (sw, got) = Driver::new().run_sw(&mut m, &req);
        assert_eq!(got, want, "sw {task:?}");
        let c = Comparison { sw, hw, prep };
        t.row(&[
            task.label().to_string(),
            fmt_sig(us(c.sw)),
            fmt_sig(us(c.hw)),
            if c.prep.is_zero() {
                "-".to_string()
            } else {
                fmt_sig(us(c.prep))
            },
            fmt_sig(c.speedup()),
        ]);
        rows.push(cmp_row(task.label(), &c));
    }
    TableResult {
        number: 12,
        title: title.to_string(),
        rows,
        rendered: t.render(),
    }
}

/// Regenerates one table by number.
pub fn table(number: u32, effort: Effort) -> TableResult {
    match number {
        1 => table_resources(SystemKind::Bit32),
        2 => table_transfers_cpu(SystemKind::Bit32, effort),
        3..=5 | 9..=11 => speedup_table(number, effort),
        6 => table_resources(SystemKind::Bit64),
        7 => table_transfers_cpu(SystemKind::Bit64, effort),
        8 => table_transfers_dma(effort),
        12 => table_imaging64(effort),
        other => panic!("the paper has tables 1..=12, not {other}"),
    }
}

/// Regenerates one figure by number (as text).
pub fn figure(number: u32) -> String {
    match number {
        1 => rtr_core::system::generic_architecture(),
        2 => rtr_core::system::busmacro_figure(SystemKind::Bit32),
        3 => rtr_core::system::floorplan_string(SystemKind::Bit32),
        4 => rtr_core::system::floorplan_string(SystemKind::Bit64),
        other => panic!("the paper has figures 1..=4, not {other}"),
    }
}

/// Ablation: reconfiguration time, complete (BitLinker) vs differential
/// partial bitstreams — the trade-off section 2.2 discusses.
pub fn ablation_reconfig() -> TextTable {
    use rtr_core::manager::{feed, LoadOutcome, ModuleManager};
    let kind = SystemKind::Bit32;
    let mut t = TextTable::new(
        "Ablation: reconfiguration time (32-bit system, pattern matcher)",
        &["configuration style", "words", "time (ms)"],
    );
    let region = kind.region();
    let comp = patmatch::patmatch_component(region.width(), region.height());

    // Complete configuration through the module manager.
    let mut machine = build_system(kind);
    let mut mgr = ModuleManager::new(kind);
    mgr.register(
        comp.clone(),
        (0, 0),
        Box::new(|| Box::new(patmatch::PatMatchModule::new())),
    )
    .expect("registers");
    let out = mgr.load(&mut machine, "patmatch8x8").expect("loads");
    if let LoadOutcome::Loaded {
        reconfig_time,
        words,
        ..
    } = out
    {
        t.row(&[
            "complete (BitLinker)".to_string(),
            words.to_string(),
            fmt_sig(reconfig_time.as_ms_f64()),
        ]);
    }

    // Differential against the blank-region state, fed like any load.
    let linker = rtr_core::system::bitlinker_for(kind);
    let blank_state = linker.expected_state(&[]).expect("blank state");
    let target = linker.expected_state(&[(&comp, (0, 0))]).expect("links");
    let idcode = vp2_bitstream::idcode_for(kind.device().kind);
    let diff_bs = vp2_bitstream::differential_bitstream(&blank_state, &target, idcode);
    let mut machine = build_system(kind);
    let start = machine.cpu.now();
    feed(&mut machine, diff_bs.words.iter().copied()).expect("the differential stream commits");
    t.row(&[
        "differential (assumes blank region)".to_string(),
        diff_bs.word_count().to_string(),
        fmt_sig((machine.cpu.now() - start).as_ms_f64()),
    ]);
    t
}

/// Ablation: software-baseline quality. The headline pattern-matching
/// speedup is measured against the paper-style straightforward C
/// translation; this quantifies what a hand-optimised (table-driven)
/// software version does to it.
pub fn ablation_sw_quality() -> TextTable {
    let kind = SystemKind::Bit32;
    let image = patmatch::BinaryImage::random(96, 24, 17);
    let (t_opt, counts) = patmatch::sw_run_optimized(&mut build_system(kind), &image, &PATTERN);
    let req = Request::from(Work::PatMatch {
        image,
        pattern: PATTERN,
    });
    assert_eq!(Response::Counts(counts), req.reference());
    let c = compare(kind, &req);

    let mut t = TextTable::new(
        "Ablation: software-baseline quality (pattern matching, 32-bit system, 96x24)",
        &["implementation", "time (us)", "hw speedup vs it"],
    );
    for (label, time) in [
        ("sw, straightforward C translation", c.sw),
        ("sw, popcount-table optimised", t_opt),
        ("hw (dynamic region)", c.hw),
    ] {
        t.row(&[
            label.to_string(),
            fmt_sig(us(time)),
            fmt_sig(time.as_ps() as f64 / c.hw.as_ps() as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sw_quality_ablation_orders_correctly() {
        let t = ablation_sw_quality();
        assert_eq!(t.row_count(), 3);
    }

    /// Tables whose quick run shrinks an input its row labels do not
    /// name (transfer counts, image sizes): a shared label is not a shared
    /// measurement there.
    const SIZE_NOT_IN_LABEL: [u32; 5] = [2, 5, 7, 8, 12];

    #[test]
    fn every_table_regenerates_quick() {
        let committed = Json::parse(include_str!("../../../tables_full.json")).expect("parses");
        let committed = committed.as_arr().expect("array of tables");
        for n in 1..=12 {
            let r = table(n, Effort::Quick);
            assert_eq!(r.number, n);
            assert!(!r.rows.is_empty(), "table {n} has rows");
            assert!(r.rendered.contains("Table"), "table {n} renders");
            if SIZE_NOT_IN_LABEL.contains(&n) {
                continue;
            }
            // A quick row measuring an input the full run also measures
            // must reproduce the committed row exactly.
            let full = committed
                .iter()
                .find(|t| t.get("number").and_then(Json::as_f64) == Some(f64::from(n)))
                .and_then(|t| t.get("rows"))
                .and_then(Json::as_arr)
                .expect("committed table");
            for row in &r.rows {
                let label = Some(row.label.as_str());
                if let Some(want) = full
                    .iter()
                    .find(|w| w.get("label").and_then(Json::as_str) == label)
                {
                    let got = Json::parse(&row.to_json().render()).expect("parses");
                    assert_eq!(&got, want, "table {n}, row {:?}", row.label);
                }
            }
        }
    }

    #[test]
    fn every_figure_renders() {
        for n in 1..=4 {
            assert!(!figure(n).is_empty());
        }
    }

    #[test]
    fn reconfig_ablation_shows_differential_smaller() {
        let t = ablation_reconfig();
        assert_eq!(t.row_count(), 2);
    }
}
