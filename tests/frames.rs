//! Copy-on-write configuration memory across the stack: a linked image
//! owns only the frames its component writes and shares every other frame
//! with the BitLinker's erased base, a write through `frame_mut` never
//! reaches another memory, the pointer shortcut in `diff` and
//! `mismatched_frames` agrees with a word-by-word comparison, and the
//! number of distinct frame allocations a booted Bit64 system holds stays
//! within what its components write. A linked image is its frames alone:
//! the full-slot stream cut from them is pinned word for word, its length
//! comes without building it, and only a load that feeds it cuts it.

use std::collections::HashSet;
use vp2_repro::apps::request::{component_for, factory_for, Kernel};
use vp2_repro::bitstream::{
    apply_upset, idcode_for, partial_bitstream, partial_bitstream_len, Component,
};
use vp2_repro::configplane::ConfigPlaneConfig;
use vp2_repro::fabric::{ClbCoord, ConfigMemory, FrameAddress};
use vp2_repro::netlist::encode::encode_placement;
use vp2_repro::rtr::manager::{LoadOutcome, ModuleManager};
use vp2_repro::rtr::system::static_base;
use vp2_repro::rtr::{build_system, SystemKind};
use vp2_repro::sim::SplitMix64;

/// A manager with every kernel that has a hardware form on `kind`
/// registered at the region's origin, and those kernels' components.
fn manager_with_every_kernel(kind: SystemKind) -> (ModuleManager, Vec<Component>) {
    let mut mgr = ModuleManager::new(kind);
    let mut components = Vec::new();
    for kernel in Kernel::ALL {
        if let Some(c) = component_for(kernel, kind) {
            mgr.register(c.clone(), (0, 0), factory_for(kernel))
                .unwrap_or_else(|e| panic!("register {kernel}: {e}"));
            components.push(c);
        }
    }
    assert!(!components.is_empty());
    (mgr, components)
}

/// The frames `component`'s encoders write when it is linked at the
/// region's origin: encoded onto a blank memory, the frames that no longer
/// share the blank memory's zero frames. A write of a value a frame
/// already held counts too, since it copies the frame all the same.
fn written_frames(kind: SystemKind, component: &Component) -> HashSet<FrameAddress> {
    let region = kind.region();
    let blank = ConfigMemory::new(&kind.device());
    let mut mem = blank.clone();
    let origin = ClbCoord::new(region.cols.start, region.rows.start);
    encode_placement(&component.netlist, &component.placement, origin, &mut mem)
        .expect("the component encodes inside the device");
    mem.frame_addresses()
        .filter(|&a| !mem.shares_frame(&blank, a))
        .collect()
}

/// Distinct frame allocations across `mems`.
fn distinct_allocations<'a>(mems: impl IntoIterator<Item = &'a ConfigMemory>) -> usize {
    let mut seen = HashSet::new();
    for mem in mems {
        for a in mem.frame_addresses() {
            seen.insert(mem.frame(a).as_ptr());
        }
    }
    seen.len()
}

#[test]
fn linked_images_share_every_frame_their_component_does_not_write() {
    for kind in [SystemKind::Bit32, SystemKind::Bit64] {
        let (mgr, components) = manager_with_every_kernel(kind);
        let base = mgr.linker().erased_base();
        for c in &components {
            let image = mgr.linked_image(&c.name, 0).expect("linked");
            let written = written_frames(kind, c);
            assert!(!written.is_empty(), "{kind:?} {} writes frames", c.name);
            for a in image.frame_addresses() {
                assert_eq!(
                    image.shares_frame(base, a),
                    !written.contains(&a),
                    "{kind:?} {} frame {a}: shared with the erased base exactly \
                     when the component does not write it",
                    c.name
                );
            }
        }
    }
}

#[test]
fn copy_on_write_isolates_clones() {
    let kind = SystemKind::Bit64;
    let blank = ConfigMemory::new(&kind.device());
    let mut original = static_base(kind);
    let stamped = original.diff(&blank);
    let zero: Vec<FrameAddress> = original
        .frame_addresses()
        .filter(|a| !stamped.contains(a))
        .take(3)
        .collect();
    let (s, z) = (stamped[0], zero[0]);

    let mut clone = original.clone();
    assert!(original
        .frame_addresses()
        .all(|a| clone.shares_frame(&original, a)));

    // A write on the clone never reaches the original.
    let before = original.frame(s).to_vec();
    clone.frame_mut(s)[1] ^= 0x8000_0001;
    assert_eq!(original.frame(s), &before[..]);
    assert_ne!(clone.frame(s), &before[..]);
    assert!(!clone.shares_frame(&original, s));

    // A write on the original never reaches the clone.
    let s2 = stamped[1];
    let clone_s2 = clone.frame(s2).to_vec();
    original.frame_mut(s2)[0] ^= 1;
    assert_eq!(clone.frame(s2), &clone_s2[..]);
    assert!(!clone.shares_frame(&original, s2));

    // An upset into a shared zero frame copies that frame only: the
    // original and the other zero frames, in both memories, stay zero and
    // shared.
    assert_eq!(apply_upset(clone.frame_mut(z), 0x5E, 5), 5);
    assert!(clone.frame(z).iter().any(|&w| w != 0));
    assert!(original.frame(z).iter().all(|&w| w == 0));
    for &other in &zero[1..] {
        assert!(clone.shares_frame(&original, other));
        assert!(std::ptr::eq(
            clone.frame(other).as_ptr(),
            clone.frame(zero[1]).as_ptr()
        ));
        assert!(clone.frame(other).iter().all(|&w| w == 0));
    }
    let changed: HashSet<FrameAddress> = clone.diff(&original).into_iter().collect();
    assert_eq!(changed, HashSet::from([s, s2, z]));
}

#[test]
fn pointer_shortcut_matches_a_word_oracle() {
    let (mgr, components) = manager_with_every_kernel(SystemKind::Bit32);
    let base: &ConfigMemory = mgr.linked_image(&components[0].name, 0).expect("linked");
    let addrs: Vec<FrameAddress> = base.frame_addresses().collect();
    let oracle = |a: &ConfigMemory, b: &ConfigMemory, watched: &[FrameAddress]| {
        watched
            .iter()
            .copied()
            .filter(|&f| {
                let (x, y) = (a.frame(f), b.frame(f));
                (0..x.len()).any(|i| x[i] != y[i])
            })
            .collect::<Vec<_>>()
    };
    let mut rng = SplitMix64::new(0xC0FF_EE5D);
    let (mut flipped, mut restored) = (0, 0);
    for _ in 0..64 {
        let mut other = base.clone();
        for _ in 0..rng.below(6) {
            let a = addrs[rng.below(addrs.len() as u64) as usize];
            let word = rng.below(base.frame(a).len() as u64) as usize;
            let bit = 1u32 << rng.below(32);
            other.frame_mut(a)[word] ^= bit;
            flipped += 1;
            // Flipping the bit back restores the words but not the
            // pointer: the shortcut must then fall through to the words.
            if rng.below(3) == 0 {
                other.frame_mut(a)[word] ^= bit;
                restored += 1;
            }
        }
        assert_eq!(other.diff(base), oracle(&other, base, &addrs));
        assert_eq!(base.diff(&other), oracle(base, &other, &addrs));
        let watched: Vec<FrameAddress> = addrs
            .iter()
            .copied()
            .filter(|_| rng.below(4) == 0)
            .collect();
        assert_eq!(
            other.mismatched_frames(base, &watched),
            oracle(&other, base, &watched)
        );
    }
    assert!(
        flipped > 64 && restored > 0,
        "{flipped} flips, {restored} restored"
    );
}

#[test]
fn distinct_frame_allocations_stay_within_what_components_write() {
    let kind = SystemKind::Bit64;
    let (mut mgr, components) = manager_with_every_kernel(kind);
    let mut machine = build_system(kind);
    let first = &components[0];
    assert!(matches!(
        mgr.load(&mut machine, &first.name).expect("loads"),
        LoadOutcome::Loaded { .. }
    ));

    let images: Vec<_> = components
        .iter()
        .map(|c| mgr.linked_image(&c.name, 0).expect("linked").clone())
        .collect();
    let count = distinct_allocations(
        images
            .iter()
            .map(|image| &**image)
            .chain([mgr.linker().erased_base(), &machine.platform.config]),
    );

    // The static design's stamped frames plus one zero frame per frame
    // length, once for the linker's base and once for the live memory;
    // every frame each component writes, once per image; and the frames
    // the load wrote into the live memory, at most those of its image.
    let blank = ConfigMemory::new(&kind.device());
    let static_frames = static_base(kind).diff(&blank).len() + 2;
    let written: Vec<usize> = components
        .iter()
        .map(|c| written_frames(kind, c).len())
        .collect();
    let bound = 2 * static_frames + written.iter().sum::<usize>() + written[0];
    assert!(
        count <= bound,
        "{count} distinct frame allocations, bound {bound} (written per image {written:?})"
    );
    // One whole-device copy alone would break the bound.
    assert!(bound < blank.frame_count(), "bound {bound}");
}

/// FNV-1a (64-bit) over each word's big-endian bytes.
fn fnv1a64(words: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_be_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn cut_streams_equal_the_streams_images_used_to_store() {
    // Length and hash of every full-slot stream when each image stored
    // its stream beside its frames.
    let pins: [(SystemKind, Kernel, usize, u64); 11] = [
        (
            SystemKind::Bit32,
            Kernel::Jenkins,
            74_294,
            0xc99f_c36e_3d79_e5cd,
        ),
        (
            SystemKind::Bit32,
            Kernel::PatMatch,
            74_294,
            0x8075_7bf1_65b5_0bba,
        ),
        (
            SystemKind::Bit32,
            Kernel::Brightness,
            74_294,
            0x6b97_97ae_4be1_c645,
        ),
        (
            SystemKind::Bit32,
            Kernel::Blend,
            74_294,
            0x482c_a0fb_5d03_ae27,
        ),
        (
            SystemKind::Bit32,
            Kernel::Fade,
            74_294,
            0x4590_c215_f2ec_0cd5,
        ),
        (
            SystemKind::Bit64,
            Kernel::Sha1,
            154_394,
            0xae02_74ef_f922_6704,
        ),
        (
            SystemKind::Bit64,
            Kernel::Jenkins,
            154_394,
            0xcc5a_9858_913d_3de4,
        ),
        (
            SystemKind::Bit64,
            Kernel::PatMatch,
            154_394,
            0x11c6_81c6_4722_441b,
        ),
        (
            SystemKind::Bit64,
            Kernel::Brightness,
            154_394,
            0xca9a_a3dc_cbb1_ddbb,
        ),
        (
            SystemKind::Bit64,
            Kernel::Blend,
            154_394,
            0x9e60_1993_6fe8_0f3f,
        ),
        (
            SystemKind::Bit64,
            Kernel::Fade,
            154_394,
            0x86e4_c739_f12a_d1d1,
        ),
    ];
    for kind in [SystemKind::Bit32, SystemKind::Bit64] {
        let (mgr, components) = manager_with_every_kernel(kind);
        let pinned: Vec<_> = pins.iter().filter(|p| p.0 == kind).collect();
        assert_eq!(components.len(), pinned.len(), "{kind:?}: a pin per kernel");
        let idcode = idcode_for(kind.device().kind);
        for &&(_, kernel, len, hash) in &pinned {
            let name = kernel.module_name();
            let image = mgr.linked_image(name, 0).expect("linked");
            let stream = partial_bitstream(image, &mgr.slot_plan().slots[0].frames, idcode);
            assert_eq!(stream.word_count(), len, "{kind:?} {name}: length");
            assert_eq!(fnv1a64(&stream.words), hash, "{kind:?} {name}: words");
        }
    }
}

#[test]
fn stream_length_matches_the_built_stream() {
    let kind = SystemKind::Bit32;
    let (mgr, components) = manager_with_every_kernel(kind);
    let image = mgr.linked_image(&components[0].name, 0).expect("linked");
    let addrs: Vec<FrameAddress> = image.frame_addresses().collect();
    let idcode = idcode_for(kind.device().kind);
    let mut rng = SplitMix64::new(0x5EED_1E57);
    let mut subsets = vec![
        Vec::new(),
        addrs.clone(),
        mgr.slot_plan().slots[0].frames.clone(),
    ];
    for _ in 0..48 {
        // Unsorted, with repeats, from single frames to long runs.
        let most = rng.below(addrs.len() as u64);
        let len = rng.below(most + 1) as usize;
        let subset = match rng.below(3) {
            0 => (0..len)
                .map(|_| addrs[rng.below(addrs.len() as u64) as usize])
                .collect(),
            _ => {
                let start = rng.below((addrs.len() - len) as u64 + 1) as usize;
                let mut run = addrs[start..start + len].to_vec();
                run.reverse();
                run
            }
        };
        subsets.push(subset);
    }
    for subset in &subsets {
        assert_eq!(
            partial_bitstream_len(image, subset),
            partial_bitstream(image, subset, idcode).word_count(),
            "{} frames",
            subset.len()
        );
    }
}

#[test]
fn only_loads_that_feed_a_full_slot_stream_cut_one() {
    // A plane-off load cuts the full-slot stream once and reports its
    // length.
    let kind = SystemKind::Bit64;
    let (mut mgr, components) = manager_with_every_kernel(kind);
    let mut machine = build_system(kind);
    let outcome = mgr.load(&mut machine, &components[0].name).expect("loads");
    assert!(
        matches!(
            outcome,
            LoadOutcome::Loaded {
                words: 154_394,
                attempts: 1,
                ..
            }
        ),
        "{outcome:?}"
    );
    assert_eq!(mgr.full_streams_cut(), 1);

    // Differential and cached loads cut none, yet report the same length.
    let mut mgr = ModuleManager::new(kind);
    mgr.configure_plane(ConfigPlaneConfig {
        cache_capacity: 4,
        differential: true,
        ..ConfigPlaneConfig::default()
    })
    .expect("a single-slot plane");
    for kernel in [Kernel::Jenkins, Kernel::Brightness] {
        let c = component_for(kernel, kind).expect("a hardware form");
        mgr.register(c, (0, 0), factory_for(kernel))
            .expect("registers");
    }
    let mut machine = build_system(kind);
    let names = [Kernel::Jenkins, Kernel::Brightness].map(Kernel::module_name);
    for name in [names[0], names[1], names[0], names[1]] {
        let outcome = mgr.load(&mut machine, name).expect("loads");
        assert!(
            matches!(outcome, LoadOutcome::Loaded { words: 154_394, .. }),
            "{name}: {outcome:?}"
        );
    }
    let stats = mgr.plane_stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 3));
    assert_eq!(stats.words_full, 4 * 154_394);
    assert!(stats.words_sent < stats.words_full);
    assert_eq!(mgr.full_streams_cut(), 0);
}
