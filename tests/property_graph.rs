//! Property tests on the dependence-graph substrate, over seeded
//! random DDGs (deterministic: each test walks a fixed seed range, and
//! a failure names the seed that produced the graph).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use tms_ddg::analysis::{topo_order_zero_dist, AcyclicPriorities, TimeFrames};
use tms_ddg::mii::recurrence_info;
use tms_ddg::scc::SccDecomposition;
use tms_ddg::{Ddg, DdgBuilder, DdgError, Edge, InstId, Instruction, OpClass, MAX_MAGNITUDE};

/// A valid random DDG: intra-iteration edges only go from lower to
/// higher index (a DAG by construction), loop-carried edges are free.
fn random_ddg(seed: u64) -> Ddg {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ops = [
        OpClass::IntAlu,
        OpClass::Load,
        OpClass::Store,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpDiv,
    ];
    let n: usize = rng.gen_range(2..24);
    let mut b = DdgBuilder::new(format!("prop{seed}"));
    let specs: Vec<(OpClass, u32)> = (0..n)
        .map(|_| (ops[rng.gen_range(0..ops.len())], rng.gen_range(1..13)))
        .collect();
    let ids: Vec<InstId> = specs
        .iter()
        .enumerate()
        .map(|(i, (op, lat))| b.inst_lat(format!("n{i}"), *op, *lat))
        .collect();
    for _ in 0..rng.gen_range(0..40) {
        let src = rng.gen_range(0..n);
        let dst = rng.gen_range(0..n);
        let mut dist = rng.gen_range(0..3u32);
        // Keep distance-0 edges forward so the graph stays valid.
        if src >= dst {
            dist = dist.max(1);
        }
        let mem = rng.gen_bool(0.5);
        if mem && specs[src].0 == OpClass::Store && specs[dst].0 == OpClass::Load {
            b.mem_flow(ids[src], ids[dst], dist, 0.5);
        } else {
            b.reg_flow(ids[src], ids[dst], dist);
        }
    }
    b.build().expect("constructed DDG is valid")
}

fn population() -> impl Iterator<Item = (u64, Ddg)> {
    (0..128u64).map(|s| (s, random_ddg(s)))
}

#[test]
fn scc_is_a_partition() {
    for (seed, ddg) in population() {
        let scc = SccDecomposition::compute(&ddg);
        let mut seen = vec![false; ddg.num_insts()];
        for c in 0..scc.num_components() {
            for &n in scc.members(c) {
                assert!(!seen[n.index()], "seed {seed}: node in two components");
                seen[n.index()] = true;
                assert_eq!(scc.component_of(n), c, "seed {seed}");
            }
        }
        assert!(seen.into_iter().all(|s| s), "seed {seed}: node unassigned");
    }
}

#[test]
fn scc_members_are_mutually_reachable() {
    for (seed, ddg) in population() {
        let scc = SccDecomposition::compute(&ddg);
        for c in 0..scc.num_components() {
            let members = scc.members(c);
            if members.len() < 2 {
                continue;
            }
            for &a in members {
                let mut reach = vec![false; ddg.num_insts()];
                let mut stack = vec![a];
                reach[a.index()] = true;
                while let Some(u) = stack.pop() {
                    for v in ddg.successors(u) {
                        if !reach[v.index()] {
                            reach[v.index()] = true;
                            stack.push(v);
                        }
                    }
                }
                for &bnode in members {
                    assert!(
                        reach[bnode.index()],
                        "seed {seed}: {a} cannot reach {bnode} inside its SCC"
                    );
                }
            }
        }
    }
}

#[test]
fn frames_converge_at_rec_ii_with_sane_mobility() {
    for (seed, ddg) in population() {
        let scc = SccDecomposition::compute(&ddg);
        let rec = recurrence_info(&ddg, &scc);
        let f = TimeFrames::compute(&ddg, rec.rec_ii);
        let f = f.unwrap_or_else(|| panic!("seed {seed}: frames diverge at RecII {}", rec.rec_ii));
        for i in 0..ddg.num_insts() {
            assert!(f.mobility[i] >= 0, "seed {seed}: negative mobility at {i}");
            assert!(f.asap[i] <= f.alap[i], "seed {seed}: ASAP > ALAP at {i}");
        }
    }
}

#[test]
fn frames_diverge_below_rec_ii_when_rec_ii_positive() {
    for (seed, ddg) in population() {
        let scc = SccDecomposition::compute(&ddg);
        let rec = recurrence_info(&ddg, &scc);
        if rec.rec_ii > 1 {
            assert!(
                TimeFrames::compute(&ddg, rec.rec_ii - 1).is_none(),
                "seed {seed}: RecII {} is not tight",
                rec.rec_ii
            );
        }
    }
}

#[test]
fn ldp_bounds_every_latency_and_asap() {
    for (seed, ddg) in population() {
        let p = AcyclicPriorities::compute(&ddg);
        for inst in ddg.insts() {
            assert!(p.ldp >= inst.latency as i64, "seed {seed}");
        }
        for u in ddg.inst_ids() {
            assert!(
                p.depth[u.index()] + ddg.inst(u).latency as i64 <= p.ldp,
                "seed {seed}"
            );
            assert!(p.height[u.index()] <= p.ldp, "seed {seed}");
        }
    }
}

#[test]
fn topo_order_respects_zero_distance_edges() {
    for (seed, ddg) in population() {
        let order = topo_order_zero_dist(&ddg);
        assert_eq!(order.len(), ddg.num_insts(), "seed {seed}");
        let mut pos = vec![0; ddg.num_insts()];
        for (i, &n) in order.iter().enumerate() {
            pos[n.index()] = i;
        }
        for e in ddg.edges() {
            if e.distance == 0 {
                assert!(pos[e.src.index()] < pos[e.dst.index()], "seed {seed}: {e}");
            }
        }
    }
}

#[test]
fn serde_round_trip() {
    for (seed, ddg) in population().take(48) {
        let json = serde_json::to_string(&ddg).unwrap();
        let back: Ddg = serde_json::from_str(&json).unwrap();
        assert_eq!(format!("{ddg}"), format!("{back}"), "seed {seed}");
        let v: Value = serde_json::from_str(&json).unwrap();
        let fields: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(fields, ["name", "insts", "edges"], "seed {seed}");
    }
}

/// A DDG read from JSON is validated like a built one: an edge whose
/// endpoint is outside the node table fails to deserialize with the
/// `DdgError` text instead of reaching the analyses.
#[test]
fn dangling_edge_fails_to_deserialize_with_the_ddg_error() {
    for (seed, ddg) in population().take(48) {
        let Some(k) = (seed as usize).checked_rem(ddg.num_edges()) else {
            continue;
        };
        let mut edges = ddg.edges().to_vec();
        edges[k].dst = InstId(ddg.num_insts() as u32 + 99);
        let json = serde_json::to_string(&ddg).unwrap().replacen(
            &serde_json::to_string(ddg.edges()).unwrap(),
            &serde_json::to_string(&edges).unwrap(),
            1,
        );
        let err = serde_json::from_str::<Ddg>(&json).unwrap_err();
        assert_eq!(
            err.to_string(),
            DdgError::DanglingEdge { edge: k }.to_string(),
            "seed {seed}"
        );
    }
}

/// Latency, distance and `|delay|` are bounded at `MAX_MAGNITUDE`: one
/// past the bound fails to deserialize with the `DdgError` naming the
/// instruction or edge, and the bound itself is accepted. Parse-only,
/// so nothing here schedules an oversized graph.
#[test]
fn oversized_magnitudes_fail_to_deserialize_with_the_ddg_error() {
    type Set = fn(&mut [Instruction], &mut [Edge], u32);
    let ddg = tms_workloads::figure1();
    let cases: [(Set, DdgError); 4] = [
        (
            |i, _, n| i[0].latency = n,
            DdgError::LatencyTooLarge { inst: 0 },
        ),
        (
            |_, e, n| e[0].distance = n,
            DdgError::EdgeTooLarge { edge: 0 },
        ),
        (
            |_, e, n| e[0].delay = n.into(),
            DdgError::EdgeTooLarge { edge: 0 },
        ),
        (
            |_, e, n| e[0].delay = -i64::from(n),
            DdgError::EdgeTooLarge { edge: 0 },
        ),
    ];
    for (set, want) in cases {
        let json = |n| {
            let (mut insts, mut edges) = (ddg.insts().to_vec(), ddg.edges().to_vec());
            set(&mut insts, &mut edges, n);
            serde_json::to_string(&Value::Object(vec![
                ("name".into(), Value::Str(ddg.name().into())),
                ("insts".into(), serde_json::to_value(&insts).unwrap()),
                ("edges".into(), serde_json::to_value(&edges).unwrap()),
            ]))
            .unwrap()
        };
        assert!(
            serde_json::from_str::<Ddg>(&json(MAX_MAGNITUDE)).is_ok(),
            "{want}"
        );
        let err = serde_json::from_str::<Ddg>(&json(MAX_MAGNITUDE + 1)).unwrap_err();
        assert_eq!(err.to_string(), want.to_string());
    }
}
