//! The benchmark's own output check: word-parallel simulation of the
//! input and the re-read output on seeded patterns. It shares no code
//! with the optimizer's `cec` pass or `cec::equivalent_random`, and
//! orders gates by its own depth-first walk from the outputs.

use crate::plan::Rng;
use mig::{Mig, Signal};

/// 64-pattern words simulated per check.
const WORDS: usize = 8;

/// Output words of `m` under `inputs` (one word per primary input).
fn simulate(m: &Mig, inputs: &[u64]) -> Vec<u64> {
    let n = m.num_nodes();
    let mut val = vec![0u64; n];
    let mut done = vec![false; n];
    done[0] = true;
    for (i, &w) in inputs.iter().enumerate() {
        let node = m.input(i).node() as usize;
        val[node] = w;
        done[node] = true;
    }
    let word = |val: &[u64], s: Signal| {
        val[s.node() as usize] ^ if s.is_complemented() { u64::MAX } else { 0 }
    };
    let mut stack: Vec<(u32, bool)> = Vec::new();
    for &o in m.outputs() {
        stack.push((o.node(), false));
        while let Some((node, expanded)) = stack.pop() {
            let idx = node as usize;
            if done[idx] {
                continue;
            }
            let fanins = m.fanins(node);
            if expanded {
                let [a, b, c] = fanins.map(|s| word(&val, s));
                val[idx] = (a & b) | (a & c) | (b & c);
                done[idx] = true;
            } else {
                stack.push((node, true));
                for s in fanins {
                    if !done[s.node() as usize] {
                        stack.push((s.node(), false));
                    }
                }
            }
        }
    }
    m.outputs().iter().map(|&o| word(&val, o)).collect()
}

/// Whether `output` computes the same function as `input` on
/// `64 * WORDS` patterns drawn from `seed`. A mismatch in the interface
/// (input or output count) is a failure too.
pub fn same_function(input: &Mig, output: &Mig, seed: u64) -> bool {
    if input.num_inputs() != output.num_inputs() || input.num_outputs() != output.num_outputs() {
        return false;
    }
    let mut rng = Rng::new(seed);
    (0..WORDS).all(|_| {
        let pattern: Vec<u64> = (0..input.num_inputs()).map(|_| rng.next_u64()).collect();
        simulate(input, &pattern) == simulate(output, &pattern)
    })
}

/// A structural digest of a generated input (gate fanins in slot order
/// plus the outputs), for the job-list hash.
pub fn digest(m: &Mig) -> u64 {
    let mut bytes = Vec::with_capacity(12 * m.num_gates() + 8);
    bytes.extend_from_slice(&(m.num_inputs() as u64).to_le_bytes());
    for g in m.gates() {
        for s in m.fanins(g) {
            bytes.extend_from_slice(&(s.code() as u32).to_le_bytes());
        }
    }
    for o in m.outputs() {
        bytes.extend_from_slice(&(o.code() as u32).to_le_bytes());
    }
    crate::plan::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_matches_the_model_and_catches_a_flip() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let x = m.xor(a, b);
        let y = m.maj(x, !c, a);
        m.add_output(y);
        m.add_output(!x);
        let ins = [0b1010_1010u64, 0b1100_1100, 0b1111_0000];
        let xw = ins[0] ^ ins[1];
        let nc = !ins[2];
        let want_y = (xw & nc) | (xw & ins[0]) | (nc & ins[0]);
        assert_eq!(simulate(&m, &ins), vec![want_y, !xw]);

        assert!(same_function(&m, &m.cleanup(), 1));
        let mut flipped = m.clone();
        flipped.set_output(1, x);
        assert!(!same_function(&m, &flipped, 1));
        assert_ne!(digest(&m), digest(&flipped));
    }
}
