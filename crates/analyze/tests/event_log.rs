//! Pins of the event-dump load path: `Report::load` decodes a dump's
//! `events` array into an `EventLog` in the same pass that parses the rest
//! of the document, and `inspect` / `postmortem` render from that log.
//!
//! - Golden digests of both renderers, section by section, over generated
//!   event and flight dumps and two hand-written ones (string escapes, and
//!   elements that are not `{"Kind":{…}}`). Each rendered section (the text
//!   between blank lines) has its own FNV-1a digest, so a change shows up
//!   as the sections it touched.
//! - Differential errors: over every truncation and every single-byte
//!   substitution of a small dump, `Report::load` fails exactly when
//!   `json::parse` does, with the same offset and message, and when both
//!   succeed the tree plus the log is the tree `json::parse` returns.
//! - Version skew: every committed report loads and renders, or is refused
//!   with an error, at its own schema version and at ones this reader does
//!   not accept.

mod common;

use std::path::{Path, PathBuf};
use std::rc::Rc;

use common::{event_dump, flight_dump, repo_root};
use nscc_analyze::json::{parse, parse_with_events, Event, Json};
use nscc_analyze::report::SCHEMA_VERSION;
use nscc_analyze::{inspect, postmortem, Report};

/// A hand-written event dump: a string body with escapes, a non-object
/// body, two-member, empty and non-object elements, a broadcast channel,
/// and every section `inspect` renders.
const EVENT_EXTRA: &str = r#"{"schema_version":7,"proc_names":{"0":"a\"b","1":"island-1"},
 "events_dropped":1,"spans_dropped":0,
 "events":[
  {"Custom":{"t_ns":5,"label":"tab\there \"quoted\" é\\","rank":0}},
  {"NetSend":{"t_ns":10,"src":0,"dst":1,"bytes":64,"queue_ns":0}},
  {"Marker":3},
  {"A":{"t_ns":12,"rank":1},"B":2},
  {},
  42,
  "loose",
  [1,{"NetSend":{"t_ns":1}}],
  null,
  {"NetDeliver":{"t_ns":40,"src":0,"dst":1,"delay_ns":30}},
  {"ReadDone":{"t_ns":50,"rank":1,"block_ns":25,"nested":{"k":[1,2.5,true]}}},
  {"Checkpoint":{"t_ns":60,"rank":1,"iter":3,"bytes":512}},
  {"MailboxHigh":{"t_ns":65,"rank":0,"depth":70}},
  {"Restore":{"t_ns":70,"rank":1,"from_iter":5,"to_iter":3,"rollback":2}},
  {"BarrierExit":{"t_ns":80,"rank":0,"epoch":1,"wait_ns":12}},
  {"NetSend":{"t_ns":90,"src":1,"dst":4294967295,"bytes":8}},
  {"NetSend":{"t_ns":91,"src":0,"dst":1,"bytes":8}},
  {"NetDeliver":{"t_ns":95,"src":1,"dst":4294967295,"delay_ns":5}},
  {"NetDeliver":{"t_ns":99,"src":0,"dst":1,"delay_ns":8}}
 ],
 "spans":[{"pid":0,"start_ns":0,"end_ns":10,"kind":"Compute","label":"gen"},
          {"pid":1,"start_ns":25,"end_ns":50,"kind":"Blocked","label":"read"}]}"#;

/// A hand-written flight dump in the same spirit.
const FLIGHT_EXTRA: &str = r#"{"schema_version":7,"kind":"flight","bench":"tést","seed":9,
 "reason":"deadlock","capacity":16,"proc_names":["ga-0","ga\n1"],
 "violations":[{"monitor":"staleness","t_ns":5000,"rank":1,
   "detail":"read of loc 9 delivered staleness 7 > requested bound 5"}],
 "events":[
  {"Write":{"t_ns":1000,"rank":0,"loc":9,"age":3}},
  {"Custom":{"t_ns":1100,"label":"line\nbreak \"q\"","rank":1}},
  {"Marker":3},
  {"AntiMessage":{"t_ns":1200,"rank":0,"loc":9,"age":4},"extra":true},
  {},
  7,
  {"Write":{"t_ns":2000,"rank":0,"loc":9,"age":10,"note":null}},
  {"RetransmitGiveUp":{"t_ns":2500,"src":0,"dst":1,"seq":41}},
  {"WriterSuspected":{"t_ns":2600,"rank":1,"peer":0}},
  {"FaultDrop":{"t_ns":2700,"src":0,"dst":1}},
  {"ReadAnatomy":{"t_ns":2800,"reader":1,"writer":0,"loc":2,"age_ns":800,
    "wait_ns":50,"publish_ns":50,"transit_ns":500,"fault_ns":100,"retrans_ns":0,
    "queue_ns":60,"apply_ns":40}},
  {"NetSend":{"t_ns":2900,"src":1,"dst":4294967295,"bytes":8}},
  {"ReadBlocked":{"t_ns":3000,"rank":1,"loc":2,"need":7}}
 ]}"#;

/// The first `events` member is not an array: the dump has no events, and
/// the array after it is not read as them.
const SHADOWED: &str = r#"{"schema_version":7,"events":{"x":1},"proc_names":{},
 "events":[{"Write":{"t_ns":1,"rank":0,"loc":0,"age":1}}],"spans":[]}"#;

/// The documents the golden digests are taken over.
fn golden_docs() -> Vec<(String, String)> {
    let mut docs = Vec::new();
    for seed in 0..3 {
        docs.push((format!("event {seed}"), event_dump(seed, 600, 60)));
        docs.push((format!("flight {seed}"), flight_dump(seed, 300)));
    }
    docs.push(("event extra".into(), EVENT_EXTRA.into()));
    docs.push(("flight extra".into(), FLIGHT_EXTRA.into()));
    docs.push(("shadowed".into(), SHADOWED.into()));
    docs
}

/// Digests of the renderings, section by section: `(document, renderer,
/// [section digest, …])`. Taken before the event log replaced the tree;
/// since then only the attribution and critical-path sections of dumps
/// with broadcast deliveries have changed, when a broadcast stopped
/// rendering as a process of its own, and the two postmortem hints that
/// name the flight-ring setting, when it became the `--flight` flag.
const GOLDEN: &[(&str, &str, &[u64])] = &[
    (
        "event 0",
        "inspect",
        &[
            0xe6f05512653238bb,
            0xc4273b7f7741fcd0,
            0x75fc3dc9cd829b63,
            0xb6ec57e924b3fd17,
            0x2c63e30f05c3af0d,
        ],
    ),
    ("event 0", "postmortem", &[0xd1cca9088502e025]),
    (
        "flight 0",
        "inspect",
        &[
            0xee4afade3f0d6614,
            0xca2a2a889bd174c3,
            0xa70909f6848e317f,
            0xec276e4d510089e8,
            0x267228162cd44e29,
        ],
    ),
    (
        "flight 0",
        "postmortem",
        &[
            0x79bc15ff9d2d4f40,
            0xd658949e34e9b793,
            0xfa79f458084b1ac4,
            0x83b567f87971aa9e,
        ],
    ),
    (
        "event 1",
        "inspect",
        &[
            0xe6f05512653238bb,
            0x328b7f07727a2c72,
            0x5dc744495cfc950e,
            0x9b5d6e12f26b00a4,
            0xd25b446e2918a4c3,
        ],
    ),
    ("event 1", "postmortem", &[0xd1cca9088502e025]),
    (
        "flight 1",
        "inspect",
        &[
            0xee4afade3f0d6614,
            0x1950c8cd56a5ffe6,
            0xa791846eacce3f07,
            0x96e254457c3fcb97,
            0x098acc6c04661c8f,
        ],
    ),
    (
        "flight 1",
        "postmortem",
        &[
            0xaf8aac7c2e86f936,
            0xd658949e34e9b793,
            0x45335bb1294b686a,
            0x40fd428529d24b2e,
        ],
    ),
    (
        "event 2",
        "inspect",
        &[
            0xe6f05512653238bb,
            0x8188ac5a6f2f9dd8,
            0x74173137687102a8,
            0x8acaccfe231329d7,
            0x0e191bd95d069317,
        ],
    ),
    ("event 2", "postmortem", &[0xd1cca9088502e025]),
    (
        "flight 2",
        "inspect",
        &[
            0xee4afade3f0d6614,
            0xe08ac0a9e9b25780,
            0xaecda4a8d66dadb4,
            0xe6cc48a7589dc07c,
            0xbdc8dd5c2cb8f967,
        ],
    ),
    (
        "flight 2",
        "postmortem",
        &[
            0x3edee0cccce1b71d,
            0xd658949e34e9b793,
            0xdf741780247541e3,
            0x40fd428529d24b2e,
        ],
    ),
    (
        "event extra",
        "inspect",
        &[
            0x6afb9dba0a5856ce,
            0xbd8653fe47942a95,
            0xf5e87181c5a8b171,
            0x08a7fcc93a7a1ca1,
            0xf1fa308bc7740bca,
            0x707d90e860174088,
        ],
    ),
    ("event extra", "postmortem", &[0xd1cca9088502e025]),
    (
        "flight extra",
        "inspect",
        &[
            0x05afdb6036b33b44,
            0xed5507c3937ea1f1,
            0x861d3a1279ee6853,
            0xd8e720d7c6d46be7,
        ],
    ),
    (
        "flight extra",
        "postmortem",
        &[
            0x3576b7f33e242614,
            0x63489eceeb182b9f,
            0x689d5061e3754071,
            0x83f31beb02e0b03d,
        ],
    ),
    ("shadowed", "inspect", &[0x4bc81bda9f8fdddb]),
    ("shadowed", "postmortem", &[0xd1cca9088502e025]),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A file path of this process's own under the temp directory.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nscc_event_log_{}_{name}", std::process::id()))
}

fn load_text(path: &Path, text: &str) -> Result<Report, String> {
    std::fs::write(path, text).expect("a writable temp directory");
    Report::load(path)
}

/// Both renderers' output with the file's path taken out, as section
/// digests.
fn renderings(rep: &Report) -> [(&'static str, Vec<u64>); 2] {
    let path = rep.path.display().to_string();
    let sections = |text: String| -> Vec<u64> {
        let text = text.replace(&path, "<path>");
        text.split("\n\n").map(|s| fnv1a(s.as_bytes())).collect()
    };
    [
        ("inspect", sections(inspect(rep))),
        (
            "postmortem",
            sections(postmortem(rep).unwrap_or_else(|e| format!("error: {e}"))),
        ),
    ]
}

#[test]
fn renderings_match_the_golden_digests() {
    let path = temp_path("golden.json");
    let mut got = Vec::new();
    for (name, doc) in golden_docs() {
        let rep = load_text(&path, &doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (renderer, digests) in renderings(&rep) {
            got.push((name.clone(), renderer, digests));
        }
    }
    std::fs::remove_file(&path).ok();
    let listing: String = got
        .iter()
        .map(|(name, renderer, digests)| {
            let digests: Vec<String> = digests.iter().map(|d| format!("0x{d:016x}")).collect();
            format!("    ({name:?}, {renderer:?}, &[{}]),\n", digests.join(", "))
        })
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "rendered now:\n{listing}");
    for ((name, renderer, digests), (g_name, g_renderer, g_digests)) in got.iter().zip(GOLDEN) {
        assert_eq!(
            (name.as_str(), *renderer, digests.as_slice()),
            (*g_name, *g_renderer, *g_digests),
            "rendered now:\n{listing}"
        );
    }
}

/// The tree `json::parse` returns, rebuilt from what `parse_with_events`
/// returns: the log's elements as an array, back where the first `events`
/// member was.
fn assert_same_document(text: &str, whole: &Json) {
    let (root, log) = parse_with_events(text).expect("parses");
    let Some(log) = log else {
        assert_eq!(&root, whole, "no events log: the tree is the document");
        return;
    };
    let Json::Obj(members) = whole else {
        panic!("a log from a root that is not an object");
    };
    let at = members
        .iter()
        .position(|(k, _)| &**k == "events")
        .expect("an events member");
    let elements: Vec<Json> = log
        .iter()
        .map(|event| match event {
            Event::Tagged { kind, t_ns, body } => {
                let t = body
                    .iter()
                    .find(|(k, _)| &**k == "t_ns")
                    .and_then(|(_, v)| v.as_u64());
                assert_eq!(t_ns, t.unwrap_or(0), "t_ns of {kind}");
                Json::Obj(vec![(Rc::from(kind), Json::Obj(body.to_vec()))])
            }
            Event::Other(json) => json.clone(),
        })
        .collect();
    assert_eq!(members[at].1, Json::Arr(elements), "the events array");
    let mut rest = members.clone();
    rest.remove(at);
    assert_eq!(root, Json::Obj(rest), "the rest of the document");
}

/// `Report::load` against `json::parse` on one document: the same parse
/// error, or a parse both accept (the load may still refuse the schema).
fn assert_same_outcome(path: &Path, text: &str, what: &str) {
    let loaded = load_text(path, text);
    match parse(text.trim()) {
        Err(e) => assert_eq!(
            loaded.err(),
            Some(format!("{}: {e}", path.display())),
            "{what}: {text:?}"
        ),
        Ok(whole) => {
            if let Err(e) = &loaded {
                assert!(!e.contains("invalid JSON"), "{what}: {text:?}: {e}");
            }
            assert_same_document(text.trim(), &whole);
        }
    }
}

#[test]
fn load_fails_exactly_where_parse_does() {
    let path = temp_path("differential.json");
    let small = event_dump(5, 4, 1);
    for doc in [EVENT_EXTRA, FLIGHT_EXTRA, SHADOWED, small.as_str()] {
        for end in (0..=doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            assert_same_outcome(&path, &doc[..end], "truncation");
        }
    }
    let mut cases = 0;
    for doc in [EVENT_EXTRA, FLIGHT_EXTRA] {
        for at in (0..doc.len()).filter(|&i| doc.is_char_boundary(i) && doc.is_char_boundary(i + 1))
        {
            for with in ["\u{0}", "\"", "\\", "{", "}", "[", ",", ":", "x", "0", " "] {
                let mutated = format!("{}{with}{}", &doc[..at], &doc[at + 1..]);
                assert_same_outcome(&path, &mutated, "substitution");
                cases += 1;
            }
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(cases > 10_000, "only {cases} substitutions");
}

#[test]
fn generated_dumps_decode_to_the_parsed_tree() {
    for seed in 0..3 {
        for doc in [event_dump(seed, 2000, 100), flight_dump(seed, 512)] {
            assert_same_document(&doc, &parse(&doc).expect("parses"));
        }
    }
}

/// The committed reports, each at its own schema version and re-stamped
/// one newer than this reader accepts and as version 0.
#[test]
fn committed_reports_load_and_render_or_are_refused() {
    let root = repo_root();
    let path = temp_path("skew.json");
    let mut seen = 0;
    for dir in ["baselines", "runs", "tests/fixtures"] {
        let mut files: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.expect("a directory entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        for file in files {
            let text = std::fs::read_to_string(&file).expect("readable");
            let rep = Report::load(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            assert!(!inspect(&rep).is_empty(), "{}", file.display());
            let version = rep.schema_version();
            let stamp = format!("\"schema_version\":{version}");
            assert!(text.contains(&stamp), "{}: no {stamp}", file.display());
            for skewed in [SCHEMA_VERSION + 1, 0] {
                let text = text.replacen(&stamp, &format!("\"schema_version\":{skewed}"), 1);
                let err = load_text(&path, &text).expect_err("a version this reader refuses");
                assert!(err.contains(&format!("schema version {skewed}")), "{err}");
                match Report::load_lenient(&path) {
                    Ok(rep) => {
                        assert_eq!(skewed, SCHEMA_VERSION + 1);
                        assert!(!inspect(&rep).is_empty(), "{}", file.display());
                    }
                    Err(e) => assert!(e.contains("predates"), "{e}"),
                }
            }
            seen += 1;
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(seen >= 15, "only {seen} committed reports");
}
