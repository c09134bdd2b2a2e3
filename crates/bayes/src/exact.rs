//! Exact inference by enumeration — the ground truth the samplers are
//! validated against (tractable for the small networks of Table 2).

use crate::network::{BeliefNetwork, NodeIdx, Value};

/// The exact posterior distribution `p(query | evidence)` computed by full
/// enumeration over all joint assignments. Exponential in network size;
/// intended for tests and small networks.
pub fn exact_posterior(
    net: &BeliefNetwork,
    query: NodeIdx,
    evidence: &[(NodeIdx, Value)],
) -> Vec<f64> {
    let n = net.len();
    let arity = net.node(query).arity;
    let mut numer = vec![0.0f64; arity];
    let mut assignment: Vec<Value> = vec![0; n];

    enumerate(net, 0, 1.0, &mut assignment, evidence, &mut |joint, asg| {
        numer[asg[query] as usize] += joint;
    });

    let z: f64 = numer.iter().sum();
    assert!(z > 0.0, "evidence has zero probability");
    numer.iter().map(|&x| x / z).collect()
}

/// Recursive enumeration of assignments consistent with `evidence`,
/// invoking `visit(joint_probability, assignment)` for each.
fn enumerate(
    net: &BeliefNetwork,
    idx: usize,
    prob: f64,
    assignment: &mut Vec<Value>,
    evidence: &[(NodeIdx, Value)],
    visit: &mut impl FnMut(f64, &[Value]),
) {
    if idx == net.len() {
        visit(prob, assignment);
        return;
    }
    if prob == 0.0 {
        return; // dead branch
    }
    let fixed = evidence.iter().find(|&&(n, _)| n == idx).map(|&(_, v)| v);
    let row: Vec<f64> = net.cpt_row(idx, assignment).to_vec();
    for (v, &p) in row.iter().enumerate().take(net.node(idx).arity) {
        if let Some(f) = fixed {
            if f as usize != v {
                continue;
            }
        }
        assignment[idx] = v as Value;
        enumerate(net, idx + 1, prob * p, assignment, evidence, visit);
    }
    assignment[idx] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{binary_node, binary_root, BeliefNetwork};

    fn rain_sprinkler() -> BeliefNetwork {
        // Classic: rain -> wet, sprinkler -> wet.
        BeliefNetwork::new(vec![
            binary_root("rain", 0.2),
            binary_root("sprinkler", 0.1),
            // combos (rain, sprinkler): FF, FT, TF, TT
            binary_node("wet", vec![0, 1], &[0.01, 0.9, 0.8, 0.99]),
        ])
    }

    #[test]
    fn prior_of_root_is_its_cpt() {
        let net = rain_sprinkler();
        let p = exact_posterior(&net, 0, &[]);
        assert!((p[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn explaining_away() {
        let net = rain_sprinkler();
        // p(rain | wet) > p(rain); but also knowing the sprinkler ran
        // explains the wetness away: p(rain | wet, sprinkler) < p(rain | wet).
        let p_wet = exact_posterior(&net, 0, &[(2, 1)]);
        let p_wet_spr = exact_posterior(&net, 0, &[(2, 1), (1, 1)]);
        assert!(p_wet[1] > 0.2);
        assert!(p_wet_spr[1] < p_wet[1]);
    }

    #[test]
    fn hand_computed_posterior() {
        let net = rain_sprinkler();
        // p(wet) = sum over (r,s): p(r)p(s)p(w|r,s)
        //        = .8*.9*.01 + .8*.1*.9 + .2*.9*.8 + .2*.1*.99
        let p_wet = 0.8 * 0.9 * 0.01 + 0.8 * 0.1 * 0.9 + 0.2 * 0.9 * 0.8 + 0.2 * 0.1 * 0.99;
        // p(rain | wet) = p(rain, wet) / p(wet)
        let p_rain_wet = 0.2 * 0.9 * 0.8 + 0.2 * 0.1 * 0.99;
        let post = exact_posterior(&net, 0, &[(2, 1)]);
        assert!((post[1] - p_rain_wet / p_wet).abs() < 1e-12);
    }

    #[test]
    fn posterior_sums_to_one() {
        let net = rain_sprinkler();
        for q in 0..3 {
            let p = exact_posterior(&net, q, &[(2, 1)]);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "zero probability")]
    fn impossible_evidence_panics() {
        let net = BeliefNetwork::new(vec![binary_root("x", 1.0)]);
        let _ = exact_posterior(&net, 0, &[(0, 0)]);
    }
}
