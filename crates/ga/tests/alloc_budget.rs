//! Allocation budget of the GA kernel. Genomes are inline and every
//! per-generation buffer belongs to the `Deme`, so in steady state the
//! kernel allocates for exactly two things: the fitness cache growing (its
//! key arena, value array and probe table double — a logarithmic handful
//! over any run) and the migrant batch it hands to the DSM (one `Vec`).
//!
//! The kernel this replaced (heap `Vec<u8>` genomes, collected scratch
//! vectors, a `HashMap<Vec<u8>, f64>` cache) made, on the same
//! measurements at commit 9954bda: 53 (F1) to 87 (F6) allocations per
//! generation of `step` at N=50 and 460 to 880 at N=400 — 21 356 to
//! 353 243 over the 400 generations below, where this kernel makes 0 to 6;
//! 27 per `migrants(25)` (now 1); 12 to 27 per `incorporate` of that batch
//! (now 0, whether or not it arrives sorted); and 148 per island-generation
//! of the 4-rank run (now 5).
//!
//! Measured as differences — the same run to two lengths — so construction
//! cancels. This file holds a single test on purpose: the counter is
//! process-wide.

#[path = "../../../tests/support/counting.rs"]
mod counting;

use std::cell::Cell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use nscc_dsm::{Coherence, Directory, DsmWorld};
use nscc_ga::{
    run_island, ConvergenceBoard, CostModel, Deme, GaParams, IslandConfig, MigrantBatch,
    StopPolicy, TestFn,
};
use nscc_msg::MsgConfig;
use nscc_net::{IdealMedium, Network};
use nscc_sim::{SimBuilder, SimTime};

fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = counting::total();
    let out = f();
    (counting::total() - before, out)
}

const SHORT: u64 = 200;
const LONG: u64 = 600;
/// Allocations `LONG − SHORT` generations of `step` may make, at any N and
/// genome length: the cache's three arrays doubling a couple of times each
/// (measured: 0–6). One allocation per *generation* would be 400.
const STEP_BUDGET: u64 = 24;

/// Allocations of a whole serial run: `Deme::new` plus `gens` steps.
fn evolve(func: TestFn, pop_size: usize, gens: u64) -> u64 {
    allocs_during(|| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut deme = Deme::new(func, GaParams::with_pop_size(pop_size), &mut rng);
        for _ in 0..gens {
            deme.step(&mut rng);
        }
    })
    .0
}

const RANKS: usize = 4;
const ISLAND_SHORT: u64 = 40;
const ISLAND_LONG: u64 = 120;
/// Allocations one island may make per generation in a 4-rank run: the
/// migrant batch, the `Arc` the DSM shares it through and one boxed
/// delivery event per destination (3) — the per-write cost
/// `dsm/tests/alloc_budget.rs` pins — and nothing for evolving, sorting or
/// incorporating. Measured: 5.0; the headroom is for cache doublings.
const ISLAND_BUDGET_PER_GENERATION: f64 = 6.0;

/// Allocations of a whole 4-rank island run of `gens` generations.
fn islands(gens: u64) -> u64 {
    let mut dir = Directory::new();
    let locs = dir.add_per_rank("best", RANKS);
    let mut world: DsmWorld<MigrantBatch> = DsmWorld::new(
        Network::new(IdealMedium::new(SimTime::from_millis(1))),
        RANKS,
        MsgConfig::default(),
        dir,
    );
    for &l in &locs {
        world.set_initial(l, Vec::new());
    }
    let board = ConvergenceBoard::new(RANKS);
    let generations = Rc::new(Cell::new(0));
    let mut sim = SimBuilder::new(9);
    for r in 0..RANKS {
        let node = world.node(r);
        let locs = locs.clone();
        let board = board.clone();
        let generations = Rc::clone(&generations);
        let cfg = IslandConfig {
            cost: CostModel::deterministic(),
            ..IslandConfig::paper(
                TestFn::F6Rastrigin,
                Coherence::PartialAsync { age: 2 },
                StopPolicy::FixedGenerations(gens),
            )
        };
        sim.spawn(format!("island{r}"), move |ctx| {
            let out = run_island(ctx, node, &locs, &cfg, &board);
            generations.set(generations.get() + out.generations);
        });
    }
    let (allocs, _) = allocs_during(|| sim.run().expect("simulation runs"));
    assert_eq!(generations.get(), gens * RANKS as u64);
    allocs
}

#[test]
fn a_generation_allocates_for_the_cache_and_the_batch_only() {
    // `step`: flat in the run length, the population and the genome.
    for func in [TestFn::F1Sphere, TestFn::F6Rastrigin] {
        for pop_size in [50, 400] {
            let extra = evolve(func, pop_size, LONG) - evolve(func, pop_size, SHORT);
            assert!(
                extra <= STEP_BUDGET,
                "{} N={pop_size}: {extra} allocations in {} generations, budget {STEP_BUDGET}: \
                 something in `Deme::step` allocates per generation or per child",
                func.name(),
                LONG - SHORT
            );
        }
    }

    // `migrants` and `incorporate`, on populations a step has left unsorted
    // (so the sorts really run), at a size std's stable sort would take a
    // heap scratch buffer for.
    for pop_size in [50, 400] {
        let mut rng = StdRng::seed_from_u64(6);
        let params = GaParams::with_pop_size(pop_size);
        let mut a = Deme::new(TestFn::F6Rastrigin, params.clone(), &mut rng);
        let mut b = Deme::new(TestFn::F6Rastrigin, params, &mut rng);
        for _ in 0..3 {
            a.step(&mut rng);
            b.step(&mut rng);
            let (cut, batch) = allocs_during(|| a.migrants(25));
            assert_eq!(batch.len(), 25);
            assert_eq!(cut, 1, "N={pop_size}: a migrant batch is one allocation");
            let (first, ()) = allocs_during(|| b.incorporate(&batch));
            // Again, now onto the tail the first batch rewrote.
            let (second, ()) = allocs_during(|| b.incorporate(&batch));
            assert_eq!(
                (first, second),
                (0, 0),
                "N={pop_size}: incorporating a sorted batch allocates nothing"
            );
            // A batch that does not arrive best first is sorted through
            // the deme's own scratch.
            let reversed: Vec<_> = batch.iter().rev().copied().collect();
            let (unsorted, ()) = allocs_during(|| b.incorporate(&reversed));
            assert_eq!(
                unsorted, 0,
                "N={pop_size}: incorporating an unsorted batch allocates nothing"
            );
        }
    }

    // The island loop around them: what the DSM needs per write, plus the
    // batch.
    let extra = islands(ISLAND_LONG) - islands(ISLAND_SHORT);
    let per_generation = extra as f64 / ((ISLAND_LONG - ISLAND_SHORT) * RANKS as u64) as f64;
    assert!(
        per_generation <= ISLAND_BUDGET_PER_GENERATION,
        "{per_generation:.1} allocations per island-generation, budget \
         {ISLAND_BUDGET_PER_GENERATION}: the kernel allocates on the island path"
    );
}
