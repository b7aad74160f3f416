//! The traced run: spans recorded from the benchmark's own side of every
//! layer boundary, the per-call self-time anatomy built from them, and the
//! Chrome-trace export.
//!
//! Nothing here edits the program. [`SpanSink`] is an ordinary
//! [`Observer`] handed to `SessionBuilder::observer` /
//! `DaemonBuilder::observer`; it stamps each existing event (`CallSpan`,
//! `MessageEvent`, `ServerSpan`, `ShardSpan`) on the benchmark's one clock
//! as it arrives, so client- and server-side spans — which the program
//! stamps on two unrelated wall clocks — land on a single timeline next to
//! the `bench.call` spans the workloads record themselves. Spans stay in
//! memory until the run ends.

use rcuda::obs::{CallSpan, Dir, MessageEvent, Observer, ServerSpan, ShardSpan};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// A half-open interval on the sink's clock, in nanoseconds.
pub type Interval = (u64, u64);

#[derive(Debug, Clone, Copy)]
enum Event {
    /// `client.call`: one client-runtime call, as the runtime timed it.
    ClientCall,
    MsgSent,
    MsgReceived,
    /// `server.dispatch`: service time, preceded by its batch-queue wait.
    Dispatch {
        op: &'static str,
        queue_wait: u64,
    },
    /// `server.shard_pass`: one reactor pass that moved frames.
    ShardPass {
        frames: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct Stamped {
    event: Event,
    thread: ThreadId,
    /// Span on the sink's clock: ends at arrival, starts `duration` before
    /// (the program reports durations on its own clocks; only those are
    /// comparable across them).
    span: Interval,
}

/// One `bench.call`: a client API call as the workload timed it.
#[derive(Debug, Clone, Copy)]
pub struct BenchCall {
    pub op: &'static str,
    pub bytes: u64,
    /// Call ordinal within its generator thread — the id every span of the
    /// request shares.
    pub ordinal: u64,
    thread: ThreadId,
    span: Interval,
}

/// The in-memory span store of a traced run.
pub struct SpanSink {
    origin: Instant,
    events: Mutex<Vec<Stamped>>,
    calls: Mutex<Vec<BenchCall>>,
}

impl SpanSink {
    pub fn new() -> Arc<SpanSink> {
        Arc::new(SpanSink {
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
        })
    }

    /// The handle to install with `.observer(..)`.
    pub fn handle(self: &Arc<Self>) -> rcuda::obs::ObsHandle {
        rcuda::obs::ObsHandle::new(Arc::clone(self) as Arc<dyn Observer>)
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, event: Event, duration: u64) {
        let end = self.at(Instant::now());
        self.events.lock().expect("span store lock").push(Stamped {
            event,
            thread: std::thread::current().id(),
            span: (end.saturating_sub(duration), end),
        });
    }

    /// Record one `bench.call` (the calling thread is its generator).
    pub fn bench_call(&self, op: &'static str, bytes: u64, ordinal: u64, t0: Instant, t1: Instant) {
        self.calls.lock().expect("span store lock").push(BenchCall {
            op,
            bytes,
            ordinal,
            thread: std::thread::current().id(),
            span: (self.at(t0), self.at(t1)),
        });
    }
}

impl Observer for SpanSink {
    fn call_span(&self, span: &CallSpan) {
        // Batch frames and phase markers are not calls of their own.
        if span.op.as_named().is_some() {
            self.push(Event::ClientCall, span.duration().as_nanos());
        }
    }
    fn message(&self, event: &MessageEvent) {
        match event.dir {
            Dir::Sent => self.push(Event::MsgSent, 0),
            Dir::Received => self.push(Event::MsgReceived, 0),
        }
    }
    fn server_span(&self, span: &ServerSpan) {
        if let Some(op) = span.op.as_named() {
            let queue_wait = span.queue_wait.as_nanos();
            self.push(
                Event::Dispatch { op, queue_wait },
                span.service().as_nanos(),
            );
        }
    }
    fn shard_span(&self, span: &ShardSpan) {
        self.push(
            Event::ShardPass {
                frames: span.frames,
            },
            span.duration().as_nanos(),
        );
    }
}

/// A span's self time: its duration minus the part of its interval that
/// `children` cover (children may overlap each other and stick out of the
/// parent; only their union inside the parent counts).
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = span.0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (span.1 - span.0) - covered
}

/// The spans of one request, joined under its `bench.call`.
#[derive(Debug, Clone, Default)]
struct CallTree {
    client: Option<Interval>,
    /// `transport.msg`: request flush to last reply byte consumed.
    msg: Option<Interval>,
    passes: Vec<Interval>,
    queue: Option<Interval>,
    dispatch: Option<Interval>,
}

/// Summed self times of a traced round, one field per anatomy row.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Anatomy {
    pub calls: u64,
    pub bench_total: u64,
    pub bench_self: u64,
    pub client_self: u64,
    pub msg_self: u64,
    /// Part of `msg_self` before the first server-side span of the call:
    /// request on the wire plus the server noticing it.
    pub request_wait: u64,
    /// Part of `msg_self` after the last server-side span: reply on the
    /// wire plus the client waking up.
    pub reply_wait: u64,
    pub pass_self: u64,
    pub queue_wait: u64,
    pub dispatch: u64,
    /// Shard passes that moved frames, and the frames they moved.
    pub passes: u64,
    pub frames: u64,
}

impl Anatomy {
    fn attributed(&self) -> u64 {
        self.bench_self
            + self.client_self
            + self.msg_self
            + self.pass_self
            + self.queue_wait
            + self.dispatch
    }

    /// `bench.call` time no span accounts for: positive when a call has
    /// gaps (missing spans), negative when children stick out of parents.
    pub fn unattributed(&self) -> i64 {
        self.bench_total as i64 - self.attributed() as i64
    }

    pub fn unattributed_share(&self) -> f64 {
        self.unattributed() as f64 / self.bench_total.max(1) as f64
    }

    /// Mean microseconds per call of a summed field.
    pub fn per_call_us(&self, total: u64) -> f64 {
        total as f64 / 1e3 / self.calls.max(1) as f64
    }

    fn add(&mut self, call: Interval, tree: &CallTree) {
        self.calls += 1;
        self.bench_total += call.1 - call.0;
        let server: Vec<Interval> = tree
            .passes
            .iter()
            .copied()
            .chain(tree.queue)
            .chain(tree.dispatch)
            .collect();
        // Each span's children are the next layer down that was recorded.
        let below_bench: Vec<Interval> = tree.client.or(tree.msg).into_iter().collect();
        self.bench_self += self_time(
            call,
            if below_bench.is_empty() {
                &server
            } else {
                &below_bench
            },
        );
        if let Some(client) = tree.client {
            let below: Vec<Interval> = tree.msg.into_iter().collect();
            self.client_self += self_time(client, if below.is_empty() { &server } else { &below });
        }
        if let Some(msg) = tree.msg {
            self.msg_self += self_time(msg, &server);
            let first = server.iter().map(|s| s.0).min();
            let last = server.iter().map(|s| s.1).max();
            if let (Some(first), Some(last)) = (first, last) {
                self.request_wait += first.clamp(msg.0, msg.1) - msg.0;
                self.reply_wait += msg.1 - last.clamp(msg.0, msg.1);
            }
        }
        let leaves: Vec<Interval> = tree.queue.into_iter().chain(tree.dispatch).collect();
        for &pass in &tree.passes {
            self.pass_self += self_time(pass, &leaves);
        }
        self.queue_wait += tree.queue.map_or(0, |q| q.1 - q.0);
        self.dispatch += tree.dispatch.map_or(0, |d| d.1 - d.0);
    }

    /// The call-anatomy table: self time per layer, the explicit
    /// `unattributed` row, and the closing comparison against `bench.call`.
    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        let share = |t: f64| 100.0 * t / self.bench_total.max(1) as f64;
        let _ = writeln!(
            out,
            "call anatomy: {workload} ({} calls traced; mean self time per call)",
            self.calls
        );
        let _ = writeln!(
            out,
            "  {:<44} {:>10} {:>7}",
            "layer (span: self = span minus children)", "us/call", "share"
        );
        let mut row = |name: &str, total: f64| {
            let _ = writeln!(
                out,
                "  {:<44} {:>10.2} {:>6.1}%",
                name,
                total / 1e3 / self.calls.max(1) as f64,
                share(total)
            );
        };
        row(
            "bench.call      API call outside its own span",
            self.bench_self as f64,
        );
        row(
            "client.call     marshal, bookkeeping, decode",
            self.client_self as f64,
        );
        row(
            "transport.msg   syscalls, wire, peer wake-ups",
            self.msg_self as f64,
        );
        row(
            "  of which request -> first server span",
            self.request_wait as f64,
        );
        row(
            "  of which last server span -> reply read",
            self.reply_wait as f64,
        );
        row(
            "server.shard_pass  read, decode, encode, write",
            self.pass_self as f64,
        );
        row(
            "server.queue_wait  behind earlier batch items",
            self.queue_wait as f64,
        );
        row(
            "server.dispatch    device work (simulated GPU)",
            self.dispatch as f64,
        );
        row(
            "sum of the layers (indented rows excluded)",
            self.attributed() as f64,
        );
        row("bench.call as measured", self.bench_total as f64);
        row(
            "unattributed (measured minus sum)",
            self.unattributed() as f64,
        );
        out
    }
}

/// Calls whose spans go into the Chrome trace (the first ones of the
/// round): a burst round traces a few hundred thousand, far more than a
/// viewer opens. The anatomy is always computed over all of them.
const CHROME_CALLS: usize = 5000;

/// Everything a traced round yields.
pub struct TraceReport {
    pub anatomy: Anatomy,
    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, `args.call` the id shared by a request's spans.
    pub chrome_json: String,
    /// Calls whose spans the Chrome trace holds.
    pub traced_calls: usize,
}

/// Join the recorded events under their `bench.call`s.
///
/// A generator thread issues calls one at a time, so its client-side
/// events (same thread, stamped inside the call) join exactly. Server-side
/// events carry no session identity; each goes to the call in flight that
/// contains it — with two generators in flight (`trunk_mixed`), to the one
/// whose operation matches, preferring the call that started last.
pub fn assemble(sink: &SpanSink) -> TraceReport {
    let mut calls = sink.calls.lock().expect("span store lock").clone();
    let mut events = sink.events.lock().expect("span store lock").clone();
    calls.sort_by_key(|c| c.span.0);
    events.sort_by_key(|e| e.span.1);
    let mut generators: Vec<ThreadId> = Vec::new();
    for c in &calls {
        if !generators.contains(&c.thread) {
            generators.push(c.thread);
        }
    }
    // Per generator, its calls in issue order (non-overlapping).
    let by_generator: Vec<Vec<usize>> = generators
        .iter()
        .map(|g| {
            (0..calls.len())
                .filter(|&i| calls[i].thread == *g)
                .collect()
        })
        .collect();
    let in_flight = |g: usize, at: u64| -> Option<usize> {
        let list = &by_generator[g];
        let pos = list.partition_point(|&i| calls[i].span.0 <= at);
        pos.checked_sub(1)
            .map(|p| list[p])
            .filter(|&i| at <= calls[i].span.1)
    };

    let mut trees = vec![CallTree::default(); calls.len()];
    let mut chrome = ChromeTrace::default();
    for e in &events {
        let generator = generators.iter().position(|g| *g == e.thread);
        match (e.event, generator) {
            (Event::ClientCall, Some(g)) => {
                if let Some(i) = in_flight(g, e.span.1) {
                    trees[i].client = Some(e.span);
                }
            }
            (Event::MsgSent, Some(g)) => {
                if let Some(i) = in_flight(g, e.span.1) {
                    let msg = trees[i].msg.get_or_insert(e.span);
                    msg.1 = msg.1.max(e.span.1);
                }
            }
            (Event::MsgReceived, Some(g)) => {
                if let Some(i) = in_flight(g, e.span.1) {
                    if let Some(msg) = trees[i].msg.as_mut() {
                        msg.1 = msg.1.max(e.span.1);
                    }
                }
            }
            (Event::Dispatch { op, queue_wait }, None) => {
                // Candidates: the call each generator has in flight when
                // the dispatch ended.
                let owner = (0..generators.len())
                    .filter_map(|g| in_flight(g, e.span.1))
                    .filter(|&i| trees[i].dispatch.is_none())
                    .filter(|&i| calls[i].op == op)
                    .max_by_key(|&i| calls[i].span.0);
                if let Some(i) = owner {
                    trees[i].dispatch = Some(e.span);
                    if queue_wait > 0 {
                        trees[i].queue = Some((e.span.0.saturating_sub(queue_wait), e.span.0));
                    }
                }
            }
            (Event::ShardPass { .. }, None) => {
                // A pass belongs to the call whose dispatch it contains;
                // passes are joined after all dispatches are placed.
            }
            // Server-side message events (the peer's transport reports to
            // the same observer on in-process endpoints) are not spans of
            // the client's transport.msg.
            _ => {}
        }
    }
    // On a mux trunk the demux thread reads the reply, so no `Received`
    // lands on the generator: the message then runs to the end of the
    // client call that waited for it.
    for tree in &mut trees {
        if let (Some(msg), Some(client)) = (tree.msg.as_mut(), tree.client) {
            if msg.1 == msg.0 {
                msg.1 = client.1.max(msg.0);
            }
        }
    }
    // Passes: clip to the call whose dispatch they overlap.
    let mut anatomy = Anatomy::default();
    let mut placed: Vec<(u64, usize)> = trees
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.dispatch.map(|d| (d.1, i)))
        .collect();
    placed.sort_unstable();
    for e in &events {
        if let Event::ShardPass { frames } = e.event {
            anatomy.passes += 1;
            anatomy.frames += u64::from(frames);
            let from = placed.partition_point(|&(end, _)| end < e.span.0);
            for &(_, i) in placed[from..]
                .iter()
                .take_while(|&&(end, _)| end <= e.span.1)
            {
                let bounds = trees[i].msg.unwrap_or(calls[i].span);
                let clipped = (e.span.0.max(bounds.0), e.span.1.min(bounds.1));
                if clipped.0 < clipped.1 {
                    trees[i].passes.push(clipped);
                }
            }
        }
    }

    for (i, (call, tree)) in calls.iter().zip(&trees).enumerate() {
        anatomy.add(call.span, tree);
        if i >= CHROME_CALLS {
            continue;
        }
        let g = generators
            .iter()
            .position(|g| *g == call.thread)
            .expect("generator");
        let id = i as u64;
        chrome.span("bench.call", g, call.span, id, call);
        if let Some(s) = tree.client {
            chrome.span("client.call", g, s, id, call);
        }
        if let Some(s) = tree.msg {
            chrome.span("transport.msg", g, s, id, call);
        }
        // Server rows sit below the generators'.
        let server_row = generators.len() + g;
        for &s in &tree.passes {
            chrome.span("server.shard_pass", server_row, s, id, call);
        }
        if let Some(s) = tree.queue {
            chrome.span("server.queue_wait", server_row, s, id, call);
        }
        if let Some(s) = tree.dispatch {
            chrome.span("server.dispatch", server_row, s, id, call);
        }
    }
    TraceReport {
        anatomy,
        chrome_json: chrome.finish(),
        traced_calls: calls.len().min(CHROME_CALLS),
    }
}

/// Minimal Chrome-trace writer (complete `"X"` events, microsecond units).
#[derive(Default)]
struct ChromeTrace {
    body: String,
}

impl ChromeTrace {
    fn span(&mut self, name: &str, row: usize, span: Interval, id: u64, call: &BenchCall) {
        if !self.body.is_empty() {
            self.body.push_str(",\n");
        }
        let _ = write!(
            self.body,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{row},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"call\":{id},\"ordinal\":{},\"op\":\"{}\",\"bytes\":{}}}}}",
            span.0 as f64 / 1e3,
            (span.1 - span.0) as f64 / 1e3,
            call.ordinal,
            call.op,
            call.bytes
        );
    }

    fn finish(self) -> String {
        format!("{{\"traceEvents\":[\n{}\n]}}\n", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children_inside_the_span() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30)]), 80);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 50)]), 60);
        // Nested children count once.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children sticking out are clipped to the parent.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        // A child covering everything leaves nothing; one outside, all.
        assert_eq!(self_time((10, 20), &[(0, 30)]), 0);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
    }

    #[test]
    fn anatomy_rows_sum_to_the_bench_call() {
        // bench 0..100 ⊃ client 5..95 ⊃ msg 10..90 ⊃ pass 30..70 ⊃
        // (queue 35..40, dispatch 40..60).
        let tree = CallTree {
            client: Some((5, 95)),
            msg: Some((10, 90)),
            passes: vec![(30, 70)],
            queue: Some((35, 40)),
            dispatch: Some((40, 60)),
        };
        let mut a = Anatomy::default();
        a.add((0, 100), &tree);
        assert_eq!(a.bench_self, 10);
        assert_eq!(a.client_self, 10);
        assert_eq!(a.msg_self, 40);
        assert_eq!((a.request_wait, a.reply_wait), (20, 20));
        assert_eq!(a.pass_self, 15);
        assert_eq!((a.queue_wait, a.dispatch), (5, 20));
        assert_eq!(a.unattributed(), 0);
        assert!(a.table("t").contains("unattributed"));
    }

    #[test]
    fn missing_layers_fall_through_and_gaps_show_as_unattributed() {
        // No shard pass (blocking server): dispatch hangs off the msg.
        let tree = CallTree {
            client: Some((0, 50)),
            msg: Some((10, 40)),
            dispatch: Some((20, 30)),
            ..CallTree::default()
        };
        let mut a = Anatomy::default();
        a.add((0, 50), &tree);
        assert_eq!(
            (a.bench_self, a.client_self, a.msg_self, a.dispatch),
            (0, 20, 20, 10)
        );
        assert_eq!(a.unattributed(), 0);
        // A client span reported longer than the bench.call around it
        // over-attributes: the row goes negative instead of hiding it.
        let tree = CallTree {
            client: Some((0, 70)),
            ..CallTree::default()
        };
        let mut b = Anatomy::default();
        b.add((10, 60), &tree);
        assert_eq!(b.unattributed(), -20);
    }

    #[test]
    fn assemble_joins_client_and_server_events_by_time() {
        let sink = SpanSink::new();
        let gen = std::thread::current().id();
        let server = std::thread::spawn(|| std::thread::current().id())
            .join()
            .unwrap();
        let stamp = |event, thread, span| Stamped {
            event,
            thread,
            span,
        };
        sink.calls.lock().unwrap().push(BenchCall {
            op: "cudaMalloc",
            bytes: 0,
            ordinal: 0,
            thread: gen,
            span: (100, 200),
        });
        sink.events.lock().unwrap().extend([
            stamp(Event::MsgSent, gen, (110, 110)),
            stamp(Event::ShardPass { frames: 1 }, server, (130, 170)),
            stamp(
                Event::Dispatch {
                    op: "cudaMalloc",
                    queue_wait: 0,
                },
                server,
                (140, 150),
            ),
            stamp(Event::MsgReceived, gen, (185, 185)),
            stamp(Event::ClientCall, gen, (105, 195)),
            // A dispatch outside any call in flight joins nothing.
            stamp(
                Event::Dispatch {
                    op: "cudaFree",
                    queue_wait: 0,
                },
                server,
                (300, 310),
            ),
        ]);
        let report = assemble(&sink);
        let a = report.anatomy;
        assert_eq!(a.calls, 1);
        assert_eq!((a.bench_self, a.client_self), (10, 15));
        assert_eq!(a.msg_self, 75 - 40);
        assert_eq!((a.request_wait, a.reply_wait), (20, 15));
        assert_eq!((a.pass_self, a.dispatch), (30, 10));
        assert_eq!((a.passes, a.frames), (1, 1));
        assert_eq!(a.unattributed(), 0);
        assert!(report.chrome_json.contains("\"name\":\"server.dispatch\""));
        assert_eq!(report.chrome_json.matches("\"call\":0").count(), 5);
    }
}
