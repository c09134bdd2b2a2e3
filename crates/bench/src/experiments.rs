//! The paper's experiments, one module each: what `nscc run <name>` runs.

use crate::{ResumeOpts, Scale, Session};

mod drill;
mod fault_study;
mod fig2;
mod fig3;
mod fig4;
mod table1;
mod table2;
mod warp_study;

/// The flags every experiment reads: the session's outputs and sinks.
const SESSION_FLAGS: &str =
    "--json --trace --snap-ms --folded --live --wall --audit --flight --staleness";

/// One experiment: its name, the flags it reads besides the session's
/// own, and its body.
pub struct Experiment {
    /// The name `nscc run` takes; also the `<name>` of the files it
    /// writes (`BENCH_<name>.json`, …).
    pub name: &'static str,
    /// The flags it reads besides the nine every experiment reads,
    /// space-separated (see the [flag table](crate)); the banner's scale
    /// line and the report's scale params follow them.
    pub flags: &'static str,
    body: fn(Session) -> u8,
}

impl Experiment {
    const fn new(name: &'static str, flags: &'static str, body: fn(Session) -> u8) -> Self {
        Experiment { name, flags, body }
    }

    /// The experiment called `name`.
    pub fn find(name: &str) -> Option<&'static Experiment> {
        EXPERIMENTS.iter().find(|e| e.name == name)
    }

    /// Every flag it reads, the session's first.
    pub fn reads(&self) -> impl Iterator<Item = &'static str> {
        SESSION_FLAGS
            .split_whitespace()
            .chain(self.flags.split_whitespace())
    }

    /// Run it on `scale` and `resume`, printing its table and writing its
    /// outputs; the process exit code.
    pub fn run(&self, scale: Scale, resume: ResumeOpts) -> u8 {
        (self.body)(Session::new(self.name, self.flags, scale, resume))
    }
}

/// The eight experiments, in the paper's order.
pub static EXPERIMENTS: [Experiment; 8] = [
    Experiment::new("table1", "", table1::run),
    Experiment::new("table2", "--runs --ci --seed", table2::run),
    Experiment::new("fig2", GA_FIGURE, fig2::run),
    Experiment::new(
        "fig3",
        "--runs --ci --seed --mailbox-warn --ckpt-dir --resume --ckpt-exit-after",
        fig3::run,
    ),
    Experiment::new("fig4", GA_FIGURE, fig4::run),
    Experiment::new(
        "fault_study",
        "--runs --gens --seed --mailbox-warn --loss --ages --fault-plan --inject-stale \
         --ckpt-dir --resume --ckpt-exit-after",
        fault_study::run,
    ),
    Experiment::new(
        "warp_study",
        "--ckpt-dir --resume --ckpt-exit-after",
        warp_study::run,
    ),
    Experiment::new(
        "drill",
        "--gens --seed --mailbox-warn --ckpt-dir",
        drill::run,
    ),
];

/// What `fig2` and `fig4` read.
const GA_FIGURE: &str = "--runs --gens --seed --mailbox-warn --modes --all-functions \
                         --ckpt-dir --resume --ckpt-exit-after";
