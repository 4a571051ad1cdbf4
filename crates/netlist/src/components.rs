//! Reusable netlist combinators.
//!
//! Multi-bit arithmetic built from LUT4 primitives: the building blocks of
//! the paper's hardware task modules (XNOR/popcount trees for the pattern
//! matcher, adders and rotates for the hash cores, saturating arithmetic and
//! a small multiplier for the image-processing tasks).
//!
//! All buses are LSB-first. Ripple-carry adders are used throughout; the real
//! device's dedicated carry chains would use fewer LUTs, which we account for
//! nowhere — area numbers are therefore slightly conservative, which is the
//! safe direction for the fits/doesn't-fit conclusions.

use crate::graph::{Bus, NetId, Netlist};

/// Builds a LUT4 truth table from a boolean function of the four inputs.
pub fn truth4(f: impl Fn(bool, bool, bool, bool) -> bool) -> u16 {
    let mut t = 0u16;
    for idx in 0..16 {
        if f(idx & 1 != 0, idx & 2 != 0, idx & 4 != 0, idx & 8 != 0) {
            t |= 1 << idx;
        }
    }
    t
}

/// Logical NOT.
pub fn not(nl: &mut Netlist, a: NetId) -> NetId {
    nl.lut(truth4(|a, _, _, _| !a), [Some(a), None, None, None])
}

/// 2-input AND.
pub fn and2(nl: &mut Netlist, a: NetId, b: NetId) -> NetId {
    nl.lut(truth4(|a, b, _, _| a & b), [Some(a), Some(b), None, None])
}

/// 2-input OR.
pub fn or2(nl: &mut Netlist, a: NetId, b: NetId) -> NetId {
    nl.lut(truth4(|a, b, _, _| a | b), [Some(a), Some(b), None, None])
}

/// 2-input XOR.
pub fn xor2(nl: &mut Netlist, a: NetId, b: NetId) -> NetId {
    nl.lut(truth4(|a, b, _, _| a ^ b), [Some(a), Some(b), None, None])
}

/// 2-input XNOR (the pattern matcher's per-pixel comparator).
pub fn xnor2(nl: &mut Netlist, a: NetId, b: NetId) -> NetId {
    nl.lut(truth4(|a, b, _, _| a == b), [Some(a), Some(b), None, None])
}

/// 2:1 multiplexer: `s ? b : a`.
pub fn mux2(nl: &mut Netlist, a: NetId, b: NetId, s: NetId) -> NetId {
    nl.lut(
        truth4(|a, b, s, _| if s { b } else { a }),
        [Some(a), Some(b), Some(s), None],
    )
}

/// 2:1 multiplexer driving a pre-allocated net (feedback into FF `D`
/// inputs without a wasted buffer LUT).
pub fn mux2_into(nl: &mut Netlist, a: NetId, b: NetId, s: NetId, out: NetId) {
    nl.lut_into(
        truth4(|a, b, s, _| if s { b } else { a }),
        [Some(a), Some(b), Some(s), None],
        out,
    );
}

/// 3-input XOR (full-adder sum).
pub fn xor3(nl: &mut Netlist, a: NetId, b: NetId, c: NetId) -> NetId {
    nl.lut(
        truth4(|a, b, c, _| a ^ b ^ c),
        [Some(a), Some(b), Some(c), None],
    )
}

/// Majority of three (full-adder carry).
pub fn maj3(nl: &mut Netlist, a: NetId, b: NetId, c: NetId) -> NetId {
    nl.lut(
        truth4(|a, b, c, _| (a & b) | (a & c) | (b & c)),
        [Some(a), Some(b), Some(c), None],
    )
}

/// Bus of constant drivers for `value` (LSB first).
pub fn const_bus(nl: &mut Netlist, width: usize, value: u64) -> Bus {
    (0..width)
        .map(|b| nl.constant((value >> b) & 1 == 1))
        .collect()
}

/// Bitwise map over two equal-width buses.
fn zip_map(
    nl: &mut Netlist,
    a: &[NetId],
    b: &[NetId],
    f: fn(&mut Netlist, NetId, NetId) -> NetId,
) -> Bus {
    assert_eq!(a.len(), b.len(), "bus width mismatch");
    a.iter().zip(b).map(|(&x, &y)| f(nl, x, y)).collect()
}

/// Bitwise XOR of two buses.
pub fn bus_xor(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Bus {
    zip_map(nl, a, b, xor2)
}

/// Bitwise NOT of a bus.
pub fn bus_not(nl: &mut Netlist, a: &[NetId]) -> Bus {
    a.iter().map(|&x| not(nl, x)).collect()
}

/// Ripple-carry adder; returns `(sum, carry_out)`.
pub fn adder(nl: &mut Netlist, a: &[NetId], b: &[NetId], cin: NetId) -> (Bus, NetId) {
    assert_eq!(a.len(), b.len(), "bus width mismatch");
    let mut sum = Vec::with_capacity(a.len());
    let mut carry = cin;
    for (&x, &y) in a.iter().zip(b) {
        sum.push(xor3(nl, x, y, carry));
        carry = maj3(nl, x, y, carry);
    }
    (sum, carry)
}

/// Adds two buses modulo 2^width (no carry out).
pub fn add_mod(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Bus {
    let zero = nl.constant(false);
    adder(nl, a, b, zero).0
}

/// Subtracts `b` from `a` (two's complement); returns `(diff, borrow_free)`:
/// the second value is the adder's carry-out, i.e. 1 when `a >= b`.
pub fn subtractor(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> (Bus, NetId) {
    let nb = bus_not(nl, b);
    let one = nl.constant(true);
    adder(nl, a, &nb, one)
}

/// Left-rotate a bus by `n` positions (pure rewiring — no LUTs).
pub fn rotl(bus: &[NetId], n: usize) -> Bus {
    let w = bus.len();
    let n = n % w;
    // LSB-first: rotl by n means bit i of result = bit (i - n) mod w of input.
    (0..w).map(|i| bus[(i + w - n) % w]).collect()
}

/// Logical shift left by `n`, filling with `fill` (usually a constant 0 net).
pub fn shl(bus: &[NetId], n: usize, fill: NetId) -> Bus {
    let w = bus.len();
    (0..w)
        .map(|i| if i < n { fill } else { bus[i - n] })
        .collect()
}

/// Registers every bit of a bus; returns the Q bus.
pub fn register(nl: &mut Netlist, d: &[NetId], ce: Option<NetId>) -> Bus {
    d.iter().map(|&bit| nl.ff(bit, false, ce)).collect()
}

/// Population count of up to 4 bits, done directly in LUT4s (one LUT per
/// output bit — the trick real technology mappers use).
fn popcount4_direct(nl: &mut Netlist, bits: &[NetId]) -> Bus {
    debug_assert!((1..=4).contains(&bits.len()));
    let inputs: [Option<NetId>; 4] = std::array::from_fn(|i| bits.get(i).copied());
    let n = bits.len() as u32;
    // Width needed to count n bits: values 0..=n → ceil(log2(n+1)).
    let width = (u32::BITS - n.leading_zeros()) as usize;
    (0..width.max(1))
        .map(|k| {
            let t = truth4(|a, b, c, d| {
                let cnt = [a, b, c, d].iter().take(bits.len()).filter(|&&x| x).count();
                (cnt >> k) & 1 == 1
            });
            nl.lut(t, inputs)
        })
        .collect()
}

/// Population count: number of set bits in `bus`, as a minimal-width bus.
/// Chunks of 4 are counted directly in LUTs, then summed with adders.
pub fn popcount(nl: &mut Netlist, bus: &[NetId]) -> Bus {
    match bus.len() {
        0 => vec![nl.constant(false)],
        1..=4 => popcount4_direct(nl, bus),
        n => {
            let mid = (n / 2).next_multiple_of(4).min(n - 1);
            let (lo, hi) = bus.split_at(mid);
            let a = popcount(nl, lo);
            let b = popcount(nl, hi);
            let width = a.len().max(b.len()) + 1;
            let zero = nl.constant(false);
            let mut ea = a;
            let mut eb = b;
            ea.resize(width, zero);
            eb.resize(width, zero);
            let (sum, _) = adder(nl, &ea, &eb, zero);
            sum
        }
    }
}

/// Equality with a constant; returns a single net that is 1 when
/// `bus == value`.
pub fn eq_const(nl: &mut Netlist, bus: &[NetId], value: u64) -> NetId {
    let matches: Vec<NetId> = bus
        .iter()
        .enumerate()
        .map(|(i, &b)| if (value >> i) & 1 == 1 { b } else { not(nl, b) })
        .collect();
    and_tree(nl, &matches)
}

/// AND reduction tree.
pub fn and_tree(nl: &mut Netlist, bits: &[NetId]) -> NetId {
    match bits.len() {
        0 => nl.constant(true),
        1 => bits[0],
        _ => {
            let mut layer: Vec<NetId> = bits.to_vec();
            while layer.len() > 1 {
                layer = layer
                    .chunks(2)
                    .map(|c| {
                        if c.len() == 2 {
                            and2(nl, c[0], c[1])
                        } else {
                            c[0]
                        }
                    })
                    .collect();
            }
            layer[0]
        }
    }
}

/// OR reduction tree.
pub fn or_tree(nl: &mut Netlist, bits: &[NetId]) -> NetId {
    match bits.len() {
        0 => nl.constant(false),
        1 => bits[0],
        _ => {
            let mut layer: Vec<NetId> = bits.to_vec();
            while layer.len() > 1 {
                layer = layer
                    .chunks(2)
                    .map(|c| {
                        if c.len() == 2 {
                            or2(nl, c[0], c[1])
                        } else {
                            c[0]
                        }
                    })
                    .collect();
            }
            layer[0]
        }
    }
}

/// Unsigned multiply of `a` (width m) by `b` (width n) via shift-add;
/// result has width m + n.
pub fn multiplier(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Bus {
    let out_w = a.len() + b.len();
    let zero = nl.constant(false);
    let mut acc: Bus = vec![zero; out_w];
    for (i, &bit) in b.iter().enumerate() {
        // Partial product: a gated by b[i], shifted left by i.
        let gated: Bus = a.iter().map(|&x| and2(nl, x, bit)).collect();
        let mut pp: Bus = vec![zero; out_w];
        for (j, &g) in gated.iter().enumerate() {
            pp[i + j] = g;
        }
        let (sum, _) = adder(nl, &acc, &pp, zero);
        acc = sum;
    }
    acc
}

/// Saturating add of an unsigned bus and a sign+magnitude constant spread:
/// computes `clamp(a + signed(b), 0, 2^w - 1)` where `b` is a signed value
/// presented as a `w+1`-bit two's-complement bus. Used by the brightness
/// task (8-bit pixels + signed constant, saturating).
pub fn saturating_add_signed(nl: &mut Netlist, a: &[NetId], b_signext: &[NetId]) -> Bus {
    let w = a.len();
    assert_eq!(b_signext.len(), w + 1, "b must be w+1 bits (sign-extended)");
    let zero = nl.constant(false);
    // Extend a to w+2 bits, b to w+2 bits, add.
    let mut ea: Bus = a.to_vec();
    ea.push(zero);
    ea.push(zero);
    let mut eb: Bus = b_signext.to_vec();
    let b_sign = b_signext[w];
    eb.push(b_sign);
    let (sum, _) = adder(nl, &ea, &eb, zero);
    // sum is w+2 bits two's complement of the true value (range fits).
    let neg = sum[w + 1]; // sign bit → clamp to 0
    let ovf = {
        let not_neg = not(nl, neg);
        and2(nl, sum[w], not_neg) // bit w set while positive → clamp to max
    };
    // result = neg ? 0 : ovf ? max : sum[0..w]
    let mut out = Vec::with_capacity(w);
    for &s in sum.iter().take(w) {
        let with_max = or2(nl, s, ovf); // saturate high
        let not_neg = not(nl, neg);
        let gated = and2(nl, with_max, not_neg); // saturate low
        out.push(gated);
    }
    out
}

/// Saturating (clamping) unsigned add of two equal-width buses:
/// `min(a + b, 2^w - 1)`. Used by the additive-blending task.
pub fn saturating_add_unsigned(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Bus {
    let zero = nl.constant(false);
    let (sum, cout) = adder(nl, a, b, zero);
    sum.iter().map(|&s| or2(nl, s, cout)).collect()
}

/// Free-running counter with optional clock enable; returns the count bus.
pub fn counter(nl: &mut Netlist, width: usize, ce: Option<NetId>) -> Bus {
    // Build FFs first (their Q feeds the incrementer), then route increment
    // back into D via buffer LUTs.
    let d: Bus = (0..width).map(|_| nl.net()).collect();
    let q: Bus = d.iter().map(|&di| nl.ff(di, false, ce)).collect();
    let one_bus = const_bus(nl, width, 1);
    let zero = nl.constant(false);
    let (inc, _) = adder(nl, &q, &one_bus, zero);
    for (i, &next) in inc.iter().enumerate() {
        nl.lut_into(truth4(|a, _, _, _| a), [Some(next), None, None, None], d[i]);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Netlist;
    use crate::simulate::Simulator;

    /// Builds a 2-input combinational fixture with `w`-bit ports a, b → o.
    fn harness2(w: u16, f: impl Fn(&mut Netlist, &[NetId], &[NetId]) -> Bus) -> Simulator {
        let mut nl = Netlist::new("fixture");
        let a = nl.input_bus("a", w);
        let b = nl.input_bus("b", w);
        let o = f(&mut nl, &a, &b);
        nl.output_bus("o", &o);
        Simulator::new(&nl).unwrap()
    }

    #[test]
    fn adder_exhaustive_4bit() {
        let mut sim = harness2(4, |nl, a, b| {
            let zero = nl.constant(false);
            let (s, c) = adder(nl, a, b, zero);
            let mut out = s;
            out.push(c);
            out
        });
        for a in 0..16u64 {
            for b in 0..16u64 {
                sim.set_input("a", a);
                sim.set_input("b", b);
                assert_eq!(sim.output("o"), a + b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn subtractor_and_compare() {
        let mut sim = harness2(4, |nl, a, b| {
            let (d, geq) = subtractor(nl, a, b);
            let mut out = d;
            out.push(geq);
            out
        });
        for a in 0..16u64 {
            for b in 0..16u64 {
                sim.set_input("a", a);
                sim.set_input("b", b);
                let got = sim.output("o");
                let diff = got & 0xF;
                let geq = got >> 4;
                assert_eq!(diff, (a.wrapping_sub(b)) & 0xF);
                assert_eq!(geq, u64::from(a >= b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn popcount_exhaustive_8bit() {
        let mut nl = Netlist::new("pc");
        let a = nl.input_bus("a", 8);
        let o = popcount(&mut nl, &a);
        nl.output_bus("o", &o);
        let mut sim = Simulator::new(&nl).unwrap();
        for v in 0..256u64 {
            sim.set_input("a", v);
            assert_eq!(sim.output("o"), u64::from(v.count_ones()), "v={v:#x}");
        }
    }

    #[test]
    fn rotl_is_rewiring() {
        let mut nl = Netlist::new("rot");
        let a = nl.input_bus("a", 8);
        let r = rotl(&a, 3);
        nl.output_bus("o", &r);
        let luts = nl.lut_cell_count();
        assert_eq!(luts, 0, "rotation must not consume LUTs");
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("a", 0b1000_0001);
        assert_eq!(sim.output("o"), 0b0000_1100);
    }

    #[test]
    fn multiplier_8x8_samples() {
        let mut sim = harness2(8, multiplier);
        for (a, b) in [
            (0u64, 0u64),
            (1, 255),
            (255, 255),
            (17, 13),
            (200, 3),
            (128, 2),
        ] {
            sim.set_input("a", a);
            sim.set_input("b", b);
            assert_eq!(sim.output("o"), a * b, "a={a} b={b}");
        }
    }

    #[test]
    fn saturating_add_unsigned_8bit() {
        let mut sim = harness2(8, saturating_add_unsigned);
        for (a, b) in [(0u64, 0u64), (100, 100), (200, 100), (255, 255), (255, 1)] {
            sim.set_input("a", a);
            sim.set_input("b", b);
            assert_eq!(sim.output("o"), (a + b).min(255), "a={a} b={b}");
        }
    }

    #[test]
    fn saturating_add_signed_brightness() {
        // a: 8-bit pixel; b: 9-bit sign-extended constant.
        let mut nl = Netlist::new("bright");
        let a = nl.input_bus("a", 8);
        let b = nl.input_bus("b", 9);
        let o = saturating_add_signed(&mut nl, &a, &b);
        nl.output_bus("o", &o);
        let mut sim = Simulator::new(&nl).unwrap();
        for (px, adj) in [
            (0u64, 10i64),
            (250, 10),
            (5, -10),
            (128, -128),
            (255, 255),
            (0, -256),
        ] {
            sim.set_input("a", px);
            sim.set_input("b", (adj as u64) & 0x1FF);
            let want = (px as i64 + adj).clamp(0, 255) as u64;
            assert_eq!(sim.output("o"), want, "px={px} adj={adj}");
        }
    }

    #[test]
    fn eq_const_matches() {
        let mut nl = Netlist::new("eq");
        let a = nl.input_bus("a", 6);
        let hit = eq_const(&mut nl, &a, 37);
        nl.output("o", 0, hit);
        let mut sim = Simulator::new(&nl).unwrap();
        for v in 0..64u64 {
            sim.set_input("a", v);
            assert_eq!(sim.output("o"), u64::from(v == 37), "v={v}");
        }
    }

    #[test]
    fn reduction_trees() {
        let mut nl = Netlist::new("trees");
        let a = nl.input_bus("a", 5);
        let all = and_tree(&mut nl, &a);
        let any = or_tree(&mut nl, &a);
        nl.output("all", 0, all);
        nl.output("any", 0, any);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("a", 0b11111);
        assert_eq!(sim.output("all"), 1);
        assert_eq!(sim.output("any"), 1);
        sim.set_input("a", 0b01111);
        assert_eq!(sim.output("all"), 0);
        assert_eq!(sim.output("any"), 1);
        sim.set_input("a", 0);
        assert_eq!(sim.output("any"), 0);
    }

    #[test]
    fn counter_counts() {
        let mut nl = Netlist::new("ctr");
        let q = counter(&mut nl, 4, None);
        nl.output_bus("q", &q);
        let mut sim = Simulator::new(&nl).unwrap();
        for want in 0..20u64 {
            assert_eq!(sim.output("q"), want % 16);
            sim.step();
        }
    }

    #[test]
    fn register_with_ce() {
        let mut nl = Netlist::new("reg");
        let d = nl.input_bus("d", 8);
        let ce = nl.input("ce", 0);
        let q = register(&mut nl, &d, Some(ce));
        nl.output_bus("q", &q);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("d", 0xAB);
        sim.set_input("ce", 1);
        sim.step();
        assert_eq!(sim.output("q"), 0xAB);
        sim.set_input("d", 0xCD);
        sim.set_input("ce", 0);
        sim.step();
        assert_eq!(sim.output("q"), 0xAB, "held while CE low");
    }

    #[test]
    fn shl_shifts() {
        let mut nl = Netlist::new("shl");
        let a = nl.input_bus("a", 8);
        let zero = nl.constant(false);
        let o = shl(&a, 2, zero);
        nl.output_bus("o", &o);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("a", 0b0010_0101);
        assert_eq!(sim.output("o"), 0b1001_0100);
    }
}
