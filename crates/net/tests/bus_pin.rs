//! Differential pin of the shared bus: `EthernetBus` computes its collision
//! window in O(1) from an exact integer sum and a guard band, falling back
//! to the left-to-right `f64` sum only near a boundary. The sequential
//! implementation it replaced is kept verbatim in [`reference`]; both are
//! driven with the same seeded traffic in every regime the collision model
//! has, and must agree on every arrival, every utilization and the final
//! counters.
//!
//! The knee test aims at the guard band itself: it sets the knee one ulp
//! either side of both the reference's utilization and the exact-sum one,
//! at frames where the two differ, so a band of zero width or a result
//! taken without checking that both ends agree shows up as a wrong
//! nanosecond.

use std::collections::VecDeque;

use nscc_net::{EthernetBus, EthernetConfig, Medium, MediumStats, NodeId};
use nscc_sim::SimTime;

/// The bus as it was before the O(1) window: every frame re-sums the whole
/// window left to right.
mod reference {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use nscc_net::{EthernetConfig, Medium, MediumStats, NodeId};
    use nscc_sim::SimTime;

    pub struct EthernetBus {
        cfg: EthernetConfig,
        /// Instant at which the bus finishes its last accepted transmission.
        bus_free: SimTime,
        /// Recent transmissions `(start, wire_seconds)` inside the
        /// utilization window, for the collision model.
        recent: std::collections::VecDeque<(SimTime, f64)>,
        rng: StdRng,
        stats: MediumStats,
    }

    impl EthernetBus {
        /// A bus with the given configuration; `seed` drives backoff jitter.
        pub fn new(cfg: EthernetConfig, seed: u64) -> Self {
            EthernetBus {
                cfg,
                bus_free: SimTime::ZERO,
                recent: std::collections::VecDeque::new(),
                rng: StdRng::seed_from_u64(seed ^ 0xE7E2_17E7_0000_0001),
                stats: MediumStats::default(),
            }
        }

        /// Recent utilization of the bus (wire seconds carried inside the
        /// collision window ending at `now`).
        pub fn recent_utilization(&self, now: SimTime) -> f64 {
            let window = self.cfg.collision_window.as_secs_f64();
            if window <= 0.0 {
                return 0.0;
            }
            let horizon = now.saturating_sub(self.cfg.collision_window);
            let busy: f64 = self
                .recent
                .iter()
                .filter(|(t, _)| *t >= horizon)
                .map(|(_, w)| *w)
                .sum();
            busy / window
        }

        /// Collision-induced service-time multiplier at utilization `rho`.
        fn collision_factor(&self, rho: f64) -> f64 {
            if self.cfg.collision_strength <= 0.0 || rho <= self.cfg.collision_knee {
                return 1.0;
            }
            let over = rho - self.cfg.collision_knee;
            let f =
                1.0 + self.cfg.collision_strength * over * over / (1.02 - rho.min(1.0)).max(0.02);
            f.min(12.0) // collisions degrade Ethernet to ~1/12 capacity at worst
        }

        /// Serialization time for `wire_bytes` at the configured bandwidth.
        fn tx_time(&self, wire_bytes: u64) -> SimTime {
            SimTime::from_secs_f64(wire_bytes as f64 * 8.0 / self.cfg.bandwidth_bps)
        }

        /// Total bytes on the wire for a message of `payload` bytes, after
        /// fragmentation into MTU-sized frames.
        fn wire_bytes(&self, payload: usize) -> u64 {
            let frames = payload.div_ceil(self.cfg.mtu).max(1);
            (payload + frames * self.cfg.frame_overhead) as u64
        }
    }

    impl Medium for EthernetBus {
        fn transmit(
            &mut self,
            now: SimTime,
            _src: NodeId,
            _dst: NodeId,
            payload_bytes: usize,
        ) -> SimTime {
            let wire = self.wire_bytes(payload_bytes);
            let mut tx = self.tx_time(wire);

            // Contention: if the bus is busy, wait for it and pay a bounded
            // random backoff (deterministic given the seed and call order).
            let mut start = now;
            if self.bus_free > now {
                start = self.bus_free;
                if !self.cfg.max_backoff.is_zero() {
                    let backoff = self.rng.gen_range(0..=self.cfg.max_backoff.as_nanos());
                    start += SimTime::from_nanos(backoff);
                }
            }

            // Congestion collapse: collisions inflate the effective service
            // time once recent *offered* load (submission-time, uninflated
            // wire time) passes the knee. Offered load is the causal driver:
            // when senders throttle, the window drains and the bus recovers —
            // a backlog being worked off does not by itself keep collisions
            // alive.
            let horizon = now.saturating_sub(self.cfg.collision_window);
            while matches!(self.recent.front(), Some((t, _)) if *t < horizon) {
                self.recent.pop_front();
            }
            self.recent.push_back((now, tx.as_secs_f64()));
            let rho = self.recent_utilization(now);
            let factor = self.collision_factor(rho);
            if factor > 1.0 {
                tx = SimTime::from_secs_f64(tx.as_secs_f64() * factor);
            }

            let queueing = start - now;
            let end = start + tx;
            self.bus_free = end;

            self.stats.frames += 1;
            self.stats.payload_bytes += payload_bytes as u64;
            self.stats.wire_bytes += wire;
            self.stats.queueing = self.stats.queueing.saturating_add(queueing);
            self.stats.busy = self.stats.busy.saturating_add(tx);

            end + self.cfg.propagation
        }

        fn transmit_broadcast(
            &mut self,
            now: SimTime,
            src: NodeId,
            payload_bytes: usize,
        ) -> Option<SimTime> {
            // A shared bus is a physical broadcast medium: one frame, all
            // stations hear it. Model it as a normal transmission.
            Some(self.transmit(now, src, src, payload_bytes))
        }

        fn stats(&self) -> MediumStats {
            self.stats
        }

        fn next_free(&self, now: SimTime) -> SimTime {
            self.bus_free.max(now)
        }
    }
}

/// SplitMix64: a seeded stream with no dependency on `rand`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// One submitted frame: `(submit instant, payload bytes, broadcast?)`.
type Frame = (SimTime, usize, bool);

/// `frames` submissions whose gaps are uniform in `gap_ns` and payloads in
/// `bytes`; one in eight is a broadcast.
fn traffic(seed: u64, frames: usize, gap_ns: (u64, u64), bytes: (u64, u64)) -> Vec<Frame> {
    let mut rng = SplitMix(seed);
    let mut now = SimTime::from_millis(1);
    (0..frames)
        .map(|_| {
            now += SimTime::from_nanos(rng.range(gap_ns.0, gap_ns.1));
            let size = rng.range(bytes.0, bytes.1) as usize;
            (now, size, rng.next().is_multiple_of(8))
        })
        .collect()
}

/// Alternating quiet and flooded phases, so utilization sweeps up through
/// the knee, past 1 and back down again, many times.
fn bursts(seed: u64, frames: usize) -> Vec<Frame> {
    let mut rng = SplitMix(seed);
    let mut now = SimTime::from_millis(1);
    (0..frames)
        .map(|i| {
            let gap = match (i / 150) % 4 {
                0 => rng.range(2_000_000, 9_000_000),
                1 => rng.range(600_000, 1_100_000),
                2 => rng.range(100_000, 500_000),
                _ => rng.range(800_000, 1_400_000),
            };
            now += SimTime::from_nanos(gap);
            (now, rng.range(40, 1500) as usize, false)
        })
        .collect()
}

/// What a regime's run saw of the reference's utilization.
#[derive(Default)]
struct Seen {
    rho: Vec<f64>,
    max_rho: f64,
}

/// Drive the reference and the real bus with the same traffic; every
/// arrival and utilization must be bit-identical, and so must the counters
/// and the bus's free instant at the end.
fn pin(what: &str, cfg: &EthernetConfig, seed: u64, frames: &[Frame]) -> Seen {
    let mut old = reference::EthernetBus::new(cfg.clone(), seed);
    let mut new = EthernetBus::new(cfg.clone(), seed);
    let mut seen = Seen::default();
    for (i, &(now, bytes, broadcast)) in frames.iter().enumerate() {
        let (src, dst) = (NodeId(i as u32 % 5), NodeId(7));
        let (a, b) = if broadcast {
            (
                old.transmit_broadcast(now, src, bytes),
                new.transmit_broadcast(now, src, bytes),
            )
        } else {
            (
                Some(old.transmit(now, src, dst, bytes)),
                Some(new.transmit(now, src, dst, bytes)),
            )
        };
        assert_eq!(
            a, b,
            "{what}: frame {i} ({bytes} B at {now}) arrives differently"
        );
        let rho = old.recent_utilization(now);
        assert_eq!(
            rho.to_bits(),
            new.recent_utilization(now).to_bits(),
            "{what}: utilization after frame {i}"
        );
        seen.max_rho = seen.max_rho.max(rho);
        seen.rho.push(rho);
    }
    let end = frames.last().map_or(SimTime::ZERO, |f| f.0);
    for probe in [
        end,
        end + SimTime::from_millis(50),
        end + SimTime::from_secs(10),
    ] {
        assert_eq!(
            old.next_free(probe),
            new.next_free(probe),
            "{what}: next_free"
        );
        assert_eq!(
            old.recent_utilization(probe).to_bits(),
            new.recent_utilization(probe).to_bits(),
            "{what}: utilization at {probe}"
        );
    }
    let (a, b): (MediumStats, MediumStats) = (old.stats(), new.stats());
    assert_eq!(a, b, "{what}: stats");
    assert_eq!(a.frames, frames.len() as u64);
    seen
}

fn no_jitter() -> EthernetConfig {
    EthernetConfig {
        max_backoff: SimTime::ZERO,
        ..EthernetConfig::default()
    }
}

#[test]
fn idle_bus_matches_reference() {
    for seed in 1..=3 {
        let frames = traffic(seed, 400, (2_000_000, 40_000_000), (0, 1500));
        let seen = pin("idle", &EthernetConfig::default(), seed, &frames);
        assert!(
            seen.max_rho < 0.6,
            "idle stays below the knee: {}",
            seen.max_rho
        );
    }
}

#[test]
fn sustained_overload_and_the_cap_match_reference() {
    // A 1000-byte frame is 848 µs on the wire; these gaps offer about
    // 110 %, 200 % and 400 % of capacity.
    for (seed, gap) in [
        (11, (600_000, 1_000_000)),
        (12, (300_000, 550_000)),
        (13, (50_000, 400_000)),
    ] {
        for cfg in [EthernetConfig::default(), no_jitter()] {
            let frames = traffic(seed, 2500, gap, (700, 1300));
            let seen = pin("overload", &cfg, seed, &frames);
            // ρ ≥ 1 pins the divisor at 0.02, far past the 12× cap.
            assert!(
                seen.max_rho >= 1.0,
                "overload reaches ρ ≥ 1: {}",
                seen.max_rho
            );
        }
    }
}

#[test]
fn bursts_through_the_knee_match_reference() {
    for seed in 21..=24 {
        let frames = bursts(seed, 3000);
        let seen = pin("bursts", &EthernetConfig::default(), seed, &frames);
        let near_knee = seen
            .rho
            .iter()
            .filter(|r| (0.55..0.65).contains(*r))
            .count();
        assert!(
            near_knee > 50,
            "bursts cross the knee: {near_knee} frames near it"
        );
        assert!(seen.max_rho >= 1.0, "and pass ρ = 1: {}", seen.max_rho);
    }
}

#[test]
fn fragmentation_and_odd_configs_match_reference() {
    let frames = bursts(31, 2000);
    let jumbo = traffic(32, 1500, (200_000, 4_000_000), (0, 9000));
    let with = |mut cfg: EthernetConfig, set: fn(&mut EthernetConfig)| {
        set(&mut cfg);
        cfg
    };
    let base = EthernetConfig::default;
    let cfgs = [
        ("strength 0", with(base(), |c| c.collision_strength = 0.0)),
        ("strength 2", with(base(), |c| c.collision_strength = 2.0)),
        (
            "window 0",
            with(base(), |c| c.collision_window = SimTime::ZERO),
        ),
        (
            "window 7 ms",
            with(no_jitter(), |c| {
                c.collision_window = SimTime::from_millis(7)
            }),
        ),
        ("knee 0", with(base(), |c| c.collision_knee = 0.0)),
        ("knee 1.5", with(base(), |c| c.collision_knee = 1.5)),
        (
            "100 Mbps",
            with(base(), |c| (c.bandwidth_bps, c.mtu) = (100e6, 576)),
        ),
    ];
    for (what, cfg) in &cfgs {
        pin(what, cfg, 3, &frames);
        pin(what, cfg, 4, &jumbo);
    }
}

#[test]
fn callers_going_back_in_time_match_reference() {
    // Every so often the next submission is earlier than the last one —
    // by a little, by more than the window, or to before the first frame —
    // which leaves the window unordered until those frames age out.
    let mut rng = SplitMix(41);
    let mut now = SimTime::from_millis(500);
    let frames: Vec<Frame> = (0..3000)
        .map(|_| {
            now = match rng.next() % 40 {
                0 => now.saturating_sub(SimTime::from_nanos(rng.range(1, 2_000_000))),
                1 => now.saturating_sub(SimTime::from_millis(150)),
                2 => SimTime::from_millis(rng.range(0, 400)),
                _ => now + SimTime::from_nanos(rng.range(100_000, 1_200_000)),
            };
            (now, rng.range(40, 1500) as usize, false)
        })
        .collect();
    for cfg in [EthernetConfig::default(), no_jitter()] {
        pin("out of order", &cfg, 5, &frames);
    }
}

/// The utilization the O(1) path starts from: the exact integer sum of the
/// window's wire times (ordered traffic only).
fn exact_sum_rho(cfg: &EthernetConfig, frames: &[Frame]) -> Vec<f64> {
    let mut window: VecDeque<(SimTime, u64)> = VecDeque::new();
    let mut sum = 0u64;
    frames
        .iter()
        .map(|&(now, bytes, _)| {
            let horizon = now.saturating_sub(cfg.collision_window);
            while let Some(&(_, ns)) = window.front().filter(|(t, _)| *t < horizon) {
                window.pop_front();
                sum -= ns;
            }
            let pieces = bytes.div_ceil(cfg.mtu).max(1);
            let wire = (bytes + pieces * cfg.frame_overhead) as f64;
            let ns = SimTime::from_secs_f64(wire * 8.0 / cfg.bandwidth_bps).as_nanos();
            window.push_back((now, ns));
            sum += ns;
            (sum as f64 / 1e9) / cfg.collision_window.as_secs_f64()
        })
        .collect()
}

#[test]
fn knee_one_ulp_either_side_matches_reference() {
    fn ulp(x: f64, by: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + by) as u64)
    }
    let base = no_jitter();
    let frames = bursts(51, 1800);
    let exact = pin("knee baseline", &base, 6, &frames).rho;
    let fast = exact_sum_rho(&base, &frames);
    // Frames where the exact sum and the reference's sequential sum round
    // differently: a knee between them separates the two.
    let split: Vec<usize> = (0..frames.len())
        .filter(|&i| exact[i] != fast[i] && (0.05..1.5).contains(&exact[i]))
        .collect();
    assert!(
        split.len() >= 20,
        "only {} frames where the sums differ",
        split.len()
    );
    let step = split.len() / 20;
    for &i in split.iter().step_by(step).take(20) {
        for centre in [exact[i], fast[i]] {
            for by in -1..=1 {
                // A huge strength makes one ulp over the knee inflate the
                // frame by whole microseconds.
                for strength in [5.0, 1e30] {
                    let cfg = EthernetConfig {
                        collision_knee: ulp(centre, by),
                        collision_strength: strength,
                        ..base.clone()
                    };
                    let what = format!(
                        "knee {:e} ({by:+} ulp) at frame {i}, strength {strength:e}",
                        cfg.collision_knee
                    );
                    pin(&what, &cfg, 6, &frames[..(i + 40).min(frames.len())]);
                }
            }
        }
    }
}
