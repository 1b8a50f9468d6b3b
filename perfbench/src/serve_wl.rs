//! The admission workloads: one closed-loop client churning tenants
//! through `Daemon::handle_frame`, with every request and response passed
//! through `write_frame`/`read_frame` over in-memory buffers — the socket
//! loop's per-frame path without the syscalls.
//!
//! A run is a sequence of epochs. Each epoch builds a fresh daemon, loads
//! the resident population, then sends a fixed number of churn ops: an
//! evict frame for a random resident, then an admit frame on the same node
//! pair, either for a never-seen tenant (cold) or re-admitting the one just
//! evicted (warm). The daemon's
//! recorder keeps every span for as long as the daemon lives, so a fixed
//! epoch length keeps per-frame cost and memory independent of how many
//! frames a run sends.

use std::collections::BTreeSet;
use std::io::Cursor;
use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use sr::obs::{escape_json, Recorder};
use sr::serve::{parse, read_frame, write_frame, Daemon, Engine, FrameRead, Json, ServeConfig};
use sr::topology::Torus;

use crate::stats::Sample;
use crate::trace::WINDOW;
use crate::{Outcome, Tracer, Window};

/// The warm-admission bound an `ok` admit must meet to count as goodput.
const GOODPUT_LIMIT_MS: f64 = 1.0;

/// One admission workload's shape.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Torus extents.
    pub torus: [usize; 2],
    /// Node pairs tenants are placed on (sender, receiver).
    pub pairs: Vec<(usize, usize)>,
    /// Resident tenants per pair.
    pub per_pair: usize,
    /// Share of churn admits that carry a never-seen name.
    pub new_frac: f64,
    /// Churn ops (evict + admit) per epoch.
    pub ops_per_epoch: usize,
}

/// `serve_cold24`: the 8×8 torus of `tests/serve_admission.rs`, 24
/// two-task tenants, three on each of 8 adjacent node pairs so their links
/// overlap; half the churn admits are never-seen names.
pub fn cold24() -> Shape {
    Shape {
        torus: [8, 8],
        pairs: (0..8).map(|p| (2 * p, 2 * p + 1)).collect(),
        per_pair: 3,
        new_frac: 0.5,
        ops_per_epoch: 2000,
    }
}

/// `serve_dense256`: a 32×32 torus filled to 256 distinct tenants, two on
/// each of 128 adjacent pairs spread over the fabric; 10% of the churn
/// admits are never-seen names. With the default `memo_capacity` of 64,
/// 192 of the 256 fill admits answer `internal` (ROADMAP item 1), which is
/// why it is not listed in `BENCHMARK.json`.
pub fn dense256() -> Shape {
    Shape {
        torus: [32, 32],
        pairs: (0..128).map(|p| (8 * p, 8 * p + 1)).collect(),
        per_pair: 2,
        new_frac: 0.1,
        ops_per_epoch: 2000,
    }
}

/// A tenant the client has sent.
struct Known {
    name: String,
    pair: usize,
    admit: String,
}

/// The client's view: what it has sent and what it expects to be resident.
#[derive(Default)]
struct Client {
    known: Vec<Known>,
    resident: Vec<usize>,
}

impl Client {
    /// A never-seen tenant on `pair`: a two-task chain whose message size
    /// the tenant-mix RNG draws.
    fn fresh(&mut self, shape: &Shape, pair: usize, rng: &mut StdRng) -> usize {
        let id = self.known.len();
        let name = format!("t{id}");
        let size = 256 + 32 * rng.gen_range(0..8usize);
        let tfg = format!("task src 200\ntask dst 240\nmsg m src -> dst {size}");
        let (a, b) = shape.pairs[pair];
        let admit = format!(
            "{{\"op\":\"admit\",\"tenant\":{{\"name\":\"{name}\",\"tfg\":\"{}\",\"placement\":[{a},{b}]}}}}",
            escape_json(&tfg)
        );
        self.known.push(Known { name, pair, admit });
        id
    }
}

/// One frame's answer: whether it was `ok`, its error kind otherwise, and
/// the parsed document.
struct Answer {
    ok: bool,
    kind: String,
    doc: Json,
}

/// Sends one request frame through the codec and the daemon; returns the
/// answer and the request's wall time, ms. When `traced`, the frame, its
/// codec work and `handle_frame` get `bench.*` spans on the daemon's own
/// recorder, so they share its clock.
fn send(daemon: &mut Daemon, request: &str, op: &str, traced: bool) -> (Answer, f64) {
    let begin = |d: &Daemon, name: &str, detail: &str| {
        traced.then(|| d.recorder().begin_span(name, detail))
    };
    let end = |d: &Daemon, id: Option<sr::obs::SpanId>| {
        if let Some(id) = id {
            d.recorder().end_span(id);
        }
    };
    let t0 = Instant::now();
    let frame = begin(daemon, "bench.frame", op);
    let codec = begin(daemon, "bench.codec", "request");
    let mut wire = Vec::with_capacity(request.len() + 4);
    write_frame(&mut wire, request).expect("in-memory write");
    let payload = match read_frame(&mut Cursor::new(wire)).expect("in-memory read") {
        FrameRead::Frame(p) => p,
        other => panic!("request frame came back as {other:?}"),
    };
    end(daemon, codec);
    let handle = begin(daemon, "bench.handle_frame", op);
    let (response, _) = daemon.handle_frame(&payload);
    end(daemon, handle);
    let codec = begin(daemon, "bench.codec", "response");
    let mut wire = Vec::with_capacity(response.len() + 4);
    write_frame(&mut wire, &response).expect("in-memory write");
    let body = match read_frame(&mut Cursor::new(wire)).expect("in-memory read") {
        FrameRead::Frame(p) => p,
        other => panic!("response frame came back as {other:?}"),
    };
    end(daemon, codec);
    end(daemon, frame);
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    let doc = parse(&body).expect("the daemon answers JSON");
    let ok = doc.get("ok").and_then(Json::as_bool) == Some(true);
    let kind = if ok {
        String::new()
    } else {
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("unlabelled")
            .to_string()
    };
    (Answer { ok, kind, doc }, ms)
}

/// Runs an admission workload for at least `seconds` (whole epochs),
/// traced when `tracer` is given.
pub fn run(shape: &Shape, seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Outcome {
        goodput_limit_ms: GOODPUT_LIMIT_MS,
        ..Outcome::default()
    };
    // Warm-up: one checked but untimed epoch, so the process's first-frame
    // costs stay out of the measured classes.
    epoch(shape, &mut rng, &mut out, None);
    out.windows.clear();
    out.setup_s.clear();
    let start = Instant::now();
    loop {
        epoch(shape, &mut rng, &mut out, tracer.as_deref_mut());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out
}

fn epoch(shape: &Shape, rng: &mut StdRng, out: &mut Outcome, tracer: Option<&mut Tracer>) {
    let traced = tracer.is_some();
    let t = Instant::now();
    let engine = Engine::new(
        Box::new(Torus::new(&shape.torus).expect("valid torus")),
        ServeConfig {
            period: 200.0,
            ..ServeConfig::default()
        },
    );
    let mut daemon = Daemon::new(engine);
    let mut client = Client::default();
    for pair in 0..shape.pairs.len() {
        for _ in 0..shape.per_pair {
            let id = client.fresh(shape, pair, rng);
            let (answer, _) = send(&mut daemon, &client.known[id].admit, "admit", false);
            out.attempted += 1;
            if answer.ok {
                client.resident.push(id);
            } else {
                out.fail(&answer.kind);
            }
        }
    }
    out.setup_s.push(t.elapsed().as_secs_f64());

    let window_span = traced.then(|| daemon.recorder().begin_span(WINDOW, ""));
    let mut window = Window::default();
    let churn = Instant::now();
    for _ in 0..shape.ops_per_epoch {
        if client.resident.is_empty() {
            break;
        }
        let victim = client
            .resident
            .swap_remove(rng.gen_range(0..client.resident.len()));
        let pair = client.known[victim].pair;
        let evict = format!(
            "{{\"op\":\"evict\",\"tenant\":\"{}\"}}",
            client.known[victim].name
        );
        let (answer, _) = send(&mut daemon, &evict, "evict", traced);
        out.attempted += 1;
        if !answer.ok {
            out.violate(
                &answer.kind,
                format!("evict of resident {} failed", client.known[victim].name),
            );
        }
        after_frame(&daemon, traced, out);

        let returning = !rng.gen_bool(shape.new_frac);
        let id = if returning {
            victim
        } else {
            client.fresh(shape, pair, rng)
        };
        let (answer, ms) = send(&mut daemon, &client.known[id].admit, "admit", traced);
        out.attempted += 1;
        if answer.ok {
            client.resident.push(id);
        } else {
            out.fail(&answer.kind);
        }
        let sample = Sample { ms, ok: answer.ok };
        if returning {
            window.warm.push(sample);
        } else {
            window.cold.push(sample);
        }
        after_frame(&daemon, traced, out);
    }
    window.seconds = churn.elapsed().as_secs_f64();
    out.windows.push(window);
    if let Some(id) = window_span {
        daemon.recorder().end_span(id);
    }

    // Oracle: the daemon's tenant list matches what the client expects,
    // and the engine's own invariant sweep passes.
    out.attempted += 2;
    let (answer, _) = send(&mut daemon, "{\"op\":\"list\"}", "list", false);
    let listed: Option<BTreeSet<String>> =
        answer.doc.get("tenants").and_then(Json::as_arr).map(|a| {
            a.iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect()
        });
    let expected: BTreeSet<String> = client
        .resident
        .iter()
        .map(|&id| client.known[id].name.clone())
        .collect();
    if listed.as_ref() != Some(&expected) {
        out.violate(
            "resident_mismatch",
            format!(
                "list answered {:?}, the client expects {} tenants",
                listed.map(|l| l.len()),
                expected.len()
            ),
        );
    }
    if let Err(e) = daemon.engine().check_invariants() {
        out.violate("invariants", format!("check_invariants: {e}"));
    }
    out.tenants_held = expected.len() as f64;
    if let Some(tr) = tracer {
        tr.add(daemon.recorder());
    }
}

/// Times `Engine::ledger` and `Engine::check_invariants` after a frame; in
/// traced runs only, since neither is on the frame path.
fn after_frame(daemon: &Daemon, traced: bool, out: &mut Outcome) {
    if !traced {
        return;
    }
    let rec = daemon.recorder();
    let id = rec.begin_span("bench.ledger", "");
    std::hint::black_box(daemon.engine().ledger());
    rec.end_span(id);
    let id = rec.begin_span("bench.check_invariants", "");
    let checked = daemon.engine().check_invariants();
    rec.end_span(id);
    if let Err(e) = checked {
        out.violate("invariants", format!("check_invariants after a frame: {e}"));
    }
}
