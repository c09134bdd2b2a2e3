//! Shared by `json_pin.rs` and `alloc_budget.rs`: the pre-rewrite reader
//! and generators for the two big documents the analyzer loads. The crate
//! has no edge to `nscc-obs`, so the generators spell out what that writer
//! emits — compact, externally tagged events, the field names and widths of
//! a traced GA cell — rather than calling it.

#![allow(dead_code)]

pub mod reference;

use std::fmt::Write as _;
use std::path::PathBuf;

/// SplitMix64: the seeded stream behind every generated input.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The repository root: the nearest ancestor of the working directory
/// holding this crate's manifest (`cargo test` runs in the crate,
/// `tools/offline/check.sh` at the root).
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("a working directory");
    cwd.ancestors()
        .find(|d| d.join("crates/analyze/Cargo.toml").is_file())
        .unwrap_or_else(|| panic!("{}: not inside the nscc repository", cwd.display()))
        .to_path_buf()
}

/// One event, in the mix a traced GA cell produces (two in five are the
/// nine-member `ReadDone`, one in fourteen the ten-member `ReadDep`).
fn push_event(out: &mut String, rng: &mut SplitMix, t_ns: u64) {
    let (rank, loc, iter) = (rng.below(4), rng.below(4), rng.below(60));
    let _ = match rng.below(14) {
        0..=5 => write!(
            out,
            "{{\"ReadDone\":{{\"t_ns\":{t_ns},\"rank\":{rank},\"loc\":{loc},\
             \"curr_iter\":{iter},\"requested\":{},\"delivered\":{iter},\"staleness\":{},\
             \"blocked\":{},\"block_ns\":{}}}}}",
            iter.saturating_sub(1),
            rng.below(3),
            rng.below(2) == 0,
            rng.below(900_000),
        ),
        6 | 7 => write!(
            out,
            "{{\"NetSend\":{{\"t_ns\":{t_ns},\"src\":{rank},\"dst\":4294967295,\
             \"bytes\":652,\"queue_ns\":{}}}}}",
            rng.below(500_000),
        ),
        8 | 9 => write!(
            out,
            "{{\"NetDeliver\":{{\"t_ns\":{t_ns},\"src\":{rank},\"dst\":4294967295,\
             \"delay_ns\":{}}}}}",
            619_600 + rng.below(500_000),
        ),
        10 | 11 => write!(
            out,
            "{{\"Write\":{{\"t_ns\":{t_ns},\"rank\":{rank},\"loc\":{loc},\"age\":{iter}}}}}"
        ),
        12 => write!(
            out,
            "{{\"ReadBlocked\":{{\"t_ns\":{t_ns},\"rank\":{rank},\"loc\":{loc},\
             \"required\":{iter}}}}}"
        ),
        _ => write!(
            out,
            "{{\"ReadDep\":{{\"t_ns\":{t_ns},\"reader\":{rank},\"writer\":{loc},\"loc\":{loc},\
             \"write_iter\":{iter},\"msg_seq\":{},\"block_ns\":{},\"queued_ns\":0,\
             \"inflight_ns\":{},\"retrans_ns\":0}}}}",
            rng.below(1 << 20),
            rng.below(900_000),
            rng.below(900_000),
        ),
    };
}

fn push_events(out: &mut String, rng: &mut SplitMix, events: usize) {
    out.push_str("\"events\":[");
    let mut t_ns = 4_384_000;
    for i in 0..events {
        if i > 0 {
            out.push(',');
        }
        t_ns += rng.below(200_000);
        push_event(out, rng, t_ns);
    }
    out.push(']');
}

/// A `TRACE_*.json` event dump with `events` events and `spans` spans.
pub fn event_dump(seed: u64, events: usize, spans: usize) -> String {
    let mut rng = SplitMix(seed);
    let mut out = String::from(
        "{\"schema_version\":7,\"proc_names\":{\"0\":\"island-0\",\"1\":\"island-1\"},\
         \"events_dropped\":0,\"spans_dropped\":0,",
    );
    push_events(&mut out, &mut rng, events);
    out.push_str(",\"spans\":[");
    for i in 0..spans {
        if i > 0 {
            out.push(',');
        }
        let start = 4_534_000 + rng.below(1 << 30);
        let _ = write!(
            out,
            "{{\"pid\":{},\"start_ns\":{start},\"end_ns\":{},\"kind\":\"Phase\",\
             \"label\":\"Global_Read:best{}\"}}",
            rng.below(4),
            start + rng.below(3_000_000),
            rng.below(4),
        );
    }
    out.push_str("]}");
    out
}

/// A `FLIGHT_*.json` flight-recorder dump holding `events` events.
pub fn flight_dump(seed: u64, events: usize) -> String {
    let mut rng = SplitMix(seed);
    let mut out = format!(
        "{{\"schema_version\":7,\"kind\":\"flight\",\"bench\":\"perf\",\"seed\":{},\
         \"reason\":\"fault\",\"capacity\":{events},\"proc_names\":[\"island-0\",\"island-1\"],\
         \"violations\":[{{\"monitor\":\"staleness-bound\",\"t_ns\":5253600,\"rank\":2,\
         \"detail\":\"read of loc 0 released at age 3 > bound 2 (\\\"best1\\\")\"}}],",
        rng.next_u64() >> 16,
    );
    push_events(&mut out, &mut rng, events);
    out.push('}');
    out
}
