//! A hashing service that time-shares the dynamic region between the
//! Jenkins lookup2 core and the SHA-1 core, reconfiguring on demand — the
//! paper's "time-share the available hardware to support multiple (and
//! mutually exclusive) tasks".
//!
//! ```text
//! cargo run --release --example hashing_service
//! ```

use vp2_repro::apps::harness;
use vp2_repro::apps::request::{factory_for, Driver};
use vp2_repro::apps::{sha1, Request, Response, Work};
use vp2_repro::rtr::{build_system, SystemKind};
use vp2_repro::sim::SplitMix64;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Algo {
    Lookup2,
    Sha1,
}

fn main() {
    let kind = SystemKind::Bit64;
    println!("== hashing service on the 64-bit system ==\n");

    // A request stream with locality (bursts of the same algorithm — the
    // favourable case for run-time reconfiguration).
    let mut rng = SplitMix64::new(123);
    let mut requests = Vec::new();
    for burst in 0..6 {
        let algo = if burst % 2 == 0 {
            Algo::Lookup2
        } else {
            Algo::Sha1
        };
        for _ in 0..4 {
            let len = 64 + (rng.next_u64() % 1024) as usize;
            requests.push((algo, len));
        }
    }

    let mut loaded: Option<Algo> = None;
    let mut reconfigs = 0u32;
    let mut total = vp2_repro::sim::SimTime::ZERO;
    for (i, (algo, len)) in requests.iter().enumerate() {
        let mut key = vec![0u8; *len];
        rng.fill_bytes(&mut key);
        // Swapping algorithms costs a reconfiguration; staying on the same
        // one is free (the module manager's fast path).
        if loaded != Some(*algo) {
            reconfigs += 1;
            loaded = Some(*algo);
        }
        let request = Request::from(match algo {
            Algo::Lookup2 => Work::Jenkins { key, initval: 0 },
            Algo::Sha1 => Work::Sha1 { msg: key },
        });
        let mut machine = build_system(kind);
        harness::bind(&mut machine, factory_for(request.kernel())());
        let (t, result) = Driver::new().run_hw(&mut machine, &request);
        assert_eq!(result, request.reference(), "request {i} verified");
        let digest = match result {
            Response::Hash(h) => format!("{h:08x}"),
            Response::Digest(d) => format!("{:08x}{:08x}...", d[0], d[1]),
            other => unreachable!("a hash request answers with a hash: {other:?}"),
        };
        total += t;
        if i < 6 || i % 8 == 0 {
            println!("req {i:>2}: {algo:?} {len:>5} B -> {digest:<24} {t}");
        }
    }
    println!(
        "\n{} requests, {} algorithm switches (reconfigurations), total compute {total}",
        requests.len(),
        reconfigs
    );

    // Area is why this is time-shared at all: SHA-1 alone nearly fills the
    // region, and would not fit the 32-bit system's region (the paper's
    // table-11 note).
    let sha1_nl = sha1::sha1_netlist();
    println!(
        "SHA-1 core: ~{} slices — does not fit the 32-bit system's 1232-slice region",
        sha1_nl.slice_estimate()
    );
    use vp2_repro::netlist::AutoPlacer;
    assert!(AutoPlacer::new().place(&sha1_nl, 28, 11).is_err());
    assert!(AutoPlacer::new().place(&sha1_nl, 32, 24).is_ok());
    println!("verified: placement fails at 28x11 CLBs, succeeds at 32x24.");
}
