//! Host-side micro-benchmarks — how fast the reproduction's subsystems run
//! on the host. The *paper's* numbers (simulated time) come from the
//! `tables` binary; see EXPERIMENTS.md.
//!
//! Dependency-free harness (`harness = false`): each benchmark runs a short
//! warm-up, then a fixed number of timed iterations, and reports the mean
//! wall-clock time per iteration.
//!
//! ```text
//! cargo bench                    # all benchmarks
//! cargo bench -- patmatch        # names containing "patmatch"
//! cargo bench -- interp/         # PPC405 interpreter speed in Minstr/s
//! ```

use std::hint::black_box;
use std::time::Instant;

use rtr_apps::harness;
use rtr_apps::request::{factory_for, Driver};
use rtr_apps::{imaging, patmatch, sha1, Kernel, Request, Work};
use rtr_core::measure::{dma_transfer_time, program_transfer_time, TransferKind};
use rtr_core::{build_system, SystemKind};
use vp2_sim::SplitMix64;

const WARMUP: u32 = 2;
const ITERS: u32 = 10;

struct Harness {
    filter: Option<String>,
}

impl Harness {
    fn selected(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|filter| name.contains(filter.as_str()))
    }

    fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        if !self.selected(name) {
            return;
        }
        for _ in 0..WARMUP {
            black_box(f());
        }
        let start = Instant::now();
        for _ in 0..ITERS {
            black_box(f());
        }
        let per_iter = start.elapsed() / ITERS;
        println!("{name:<44} {per_iter:>12.2?}/iter  ({ITERS} iters)");
    }
}

fn main() {
    // `cargo bench -- <filter>`: the filter is the first non-flag argument;
    // harness-style flags (`--bench` etc.) are ignored.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let h = Harness { filter };

    // Table 2 / 7: program-controlled transfer experiment, both systems.
    for kind in [SystemKind::Bit32, SystemKind::Bit64] {
        h.bench(&format!("transfers_cpu/{kind:?}_write_1k"), || {
            let mut m = build_system(kind);
            program_transfer_time(&mut m, TransferKind::Write, 1024)
        });
    }

    // Table 8: DMA transfer experiment.
    for kind in [TransferKind::Write, TransferKind::WriteRead] {
        h.bench(&format!("transfers_dma/{kind:?}_1k"), || {
            let mut m = build_system(SystemKind::Bit64);
            dma_transfer_time(&mut m, kind, 1024)
        });
    }

    // Tables 3–5 and 9–12 time each run on a fresh machine and `Driver`,
    // the hardware runs with the kernel's module bound to the dock.
    let sw = |kind, req: &Request| Driver::new().run_sw(&mut build_system(kind), req);
    let hw = |kind, req: &Request| {
        let mut m = build_system(kind);
        harness::bind(&mut m, factory_for(req.kernel())());
        Driver::new().run_hw(&mut m, req)
    };

    // Tables 3 / 9: pattern matching, sw and hw paths.
    let patmatch_64x16 = Request::from(Work::PatMatch {
        image: patmatch::BinaryImage::random(64, 16, 1),
        pattern: [0xA5u8, 0x3C, 0x7E, 0x81, 0x42, 0x99, 0x18, 0xE7],
    });
    h.bench("patmatch/sw_64x16_bit32", || {
        sw(SystemKind::Bit32, &patmatch_64x16)
    });
    h.bench("patmatch/hw_64x16_bit32", || {
        hw(SystemKind::Bit32, &patmatch_64x16)
    });

    // The same kernel at a service-sized payload (2 KB) on the 64-bit
    // system: ~16k window counts by the behavioural module per run.
    let patmatch_64x256 = Request::from(Work::PatMatch {
        image: patmatch::BinaryImage::random(64, 256, 2),
        pattern: [0x5Au8, 0xC3, 0x0F, 0xF0, 0x66, 0x99, 0x3C, 0x81],
    });
    h.bench("patmatch/hw_64x256_bit64", || {
        hw(SystemKind::Bit64, &patmatch_64x256)
    });

    // The host-side reference checks every served request is verified
    // against.
    h.bench("reference/patmatch_64x256", || patmatch_64x256.reference());
    let (a16, b16) = (vec![0x80u8; 16384], vec![0x40u8; 16384]);
    h.bench("reference/blend_16k", || {
        imaging::reference_image(imaging::Task::Blend, &a16, &b16, 0)
    });

    // Tables 4 / 10 / 11: hashing workloads.
    let key = vec![0xABu8; 4096];
    let jenkins_4k = Request::from(Work::Jenkins {
        key: key.clone(),
        initval: 0,
    });
    let sha1_2k = Request::from(Work::Sha1 {
        msg: key[..2048].to_vec(),
    });
    h.bench("hashing/jenkins_sw_4k_bit32", || {
        sw(SystemKind::Bit32, &jenkins_4k)
    });
    h.bench("hashing/jenkins_hw_4k_bit32", || {
        hw(SystemKind::Bit32, &jenkins_4k)
    });
    h.bench("hashing/sha1_sw_2k_bit64", || {
        sw(SystemKind::Bit64, &sha1_2k)
    });
    h.bench("hashing/sha1_hw_2k_bit64", || {
        hw(SystemKind::Bit64, &sha1_2k)
    });

    // Tables 5 / 12: imaging workloads (CPU-controlled and DMA paths).
    let a = vec![0x80u8; 4096];
    let b2 = vec![0x40u8; 4096];
    for task in [imaging::Task::Brightness, imaging::Task::Fade] {
        let req = Request::from(Work::Imaging {
            task,
            a: a.clone(),
            b: b2.clone(),
            param: 25,
        });
        h.bench(&format!("imaging/{task:?}_cpu_bit32"), || {
            hw(SystemKind::Bit32, &req)
        });
        h.bench(&format!("imaging/{task:?}_dma_bit64"), || {
            let mut m = build_system(SystemKind::Bit64);
            imaging::dma_run(&mut m, task, &a, &b2, 25)
        });
    }

    // The configuration plane: BitLinker assembly and ICAP apply (the
    // reconfiguration-time ablation's building blocks).
    let kind = SystemKind::Bit32;
    let region = kind.region();
    let comp = patmatch::patmatch_component(region.width(), region.height());
    let linker = rtr_core::system::bitlinker_for(kind);
    h.bench("reconfiguration/bitlinker_link_complete", || {
        linker.link(&comp, (0, 0)).unwrap()
    });
    let (bs, _) = linker.link(&comp, (0, 0)).unwrap();
    h.bench("reconfiguration/apply_bitstream", || {
        let mut mem = rtr_core::system::static_base(kind);
        vp2_bitstream::apply_bitstream(&bs, &mut mem, vp2_bitstream::IDCODE_XC2VP7).unwrap()
    });

    // Gate-level simulation throughput (the equivalence-test workhorse).
    {
        use dock::DynamicModule;
        let nl = patmatch::patmatch_netlist();
        h.bench("gate_level/patmatch_1k_strobes", || {
            let mut m = dock::GateLevelModule::new(&nl).unwrap();
            for i in 0..1000u64 {
                black_box(m.poke_at(0, i));
            }
        });
        let sha = sha1::sha1_netlist();
        h.bench("gate_level/sha1_one_block", || {
            let mut m = dock::GateLevelModule::new(&sha).unwrap();
            m.poke_at(4, 0);
            for i in 0..16u64 {
                black_box(m.poke_at(0, i));
            }
        });
    }

    // CPU interpreter throughput.
    let prog = ppc405_sim::assemble(
        "entry:\n  li r3, 0\n  lis r4, 2\nloop:\n  addi r3, r3, 1\n  cmpw r3, r4\n  blt loop\n  halt\n",
        0x1000,
    )
    .unwrap();
    h.bench("cpu/interpreter_100k_instrs", || {
        let mut m = build_system(SystemKind::Bit64);
        m.load_program(&prog);
        m.call(prog.label("entry"), &[], 1_000_000)
    });

    // Interpreter speed on real kernels: instructions retired per host
    // second of `Driver::run_sw` with the driver program already resident
    // (machine construction and the JTAG preload are not timed). SHA-1 on
    // 2 KB, and PatMatch on a 256 B image (the middle of the `sw_interp`
    // benchmark's 64–512 B payloads, where PatMatch retires ~98% of the
    // instructions of an equal six-kernel mix).
    let patmatch_req = Request::synthetic(Kernel::PatMatch, 256, &mut SplitMix64::new(1));
    for (kernel, req) in [("sha1", &sha1_2k), ("patmatch", &patmatch_req)] {
        for kind in [SystemKind::Bit32, SystemKind::Bit64] {
            let name = format!("interp/{kind:?}_{kernel}_sw");
            if !h.selected(&name) {
                continue;
            }
            let mut m = build_system(kind);
            let mut driver = Driver::new();
            driver.preload_all(&mut m);
            for _ in 0..WARMUP {
                black_box(driver.run_sw(&mut m, req));
            }
            let before = m.cpu.stats.retired;
            let start = Instant::now();
            for _ in 0..ITERS {
                black_box(driver.run_sw(&mut m, req));
            }
            let elapsed = start.elapsed().as_secs_f64();
            let minstr_per_s = (m.cpu.stats.retired - before) as f64 / elapsed / 1e6;
            println!("{name:<44} {minstr_per_s:>9.1} Minstr/s  ({ITERS} iters)");
        }
    }
}
