//! The serving workloads, both against one `OptimizeServer` per run whose
//! cache is warmed during set-up with the hot set (the eight zoo graphs):
//!
//! * `serve_hot` — an open loop at a fixed offered rate, every request a
//!   repeat of the hot set, so every request is a cache hit. Latency is
//!   timed from each request's due time.
//! * `serve_mixed` — a closed loop: each client sends a fixed, seeded
//!   sequence and waits for every reply. About one request in twenty is a
//!   never-seen graph (a miss: one greedy episode and a cache insert); the
//!   cache's entry budget is below the number of distinct graphs, so LRU
//!   eviction runs beside the hits.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xrlflow_core::{greedy_optimize, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::Environment;
use xrlflow_graph::Graph;
use xrlflow_rewrite::RuleSet;
use xrlflow_serve::{
    http_call, CacheConfig, CacheEntry, HttpReply, OptimizeServer, OptimizeService, ResultCache,
};
use xrlflow_tensor::{ParamSnapshot, XorShiftRng};

use crate::check::{check_reply, IoShapes, ReplyFacts};
use crate::gen::{hot_schedule, hot_set, mixed_plan, sample_indices, Request, RequestGraph};
use crate::replay::{push_replay_layers, replay, Episode};
use crate::report::{push_obs_layers, ratio, ObsReading, Outcome};
use crate::stats::{geomean_reduction_pct, peak_rss_mb, process_cpu_s, timed, Samples, Stopwatch};
use crate::Args;

/// Passes per run. Each pass is a fresh set-up followed by the same load,
/// and every metric is the median over passes of the pass's value, so a
/// burst of slowdown from other tenants of a shared host that spans less
/// than half the run does not move the result.
const PASSES: usize = 5;
/// Offered rate of serve_hot, in requests per second. Closed-loop capacity
/// with two clients measured 970–1560 rps on a 2-core host, so this rate
/// keeps the server far from saturation.
const HOT_RATE: f64 = 250.0;
/// Requests per client per `--seconds` in serve_mixed, sized so a run takes
/// about `--seconds` on a 2-core host.
const MIXED_PER_CLIENT_PER_S: usize = 300;
/// Result-cache entry budget: above the hot set, far below the distinct
/// graphs of a serve_mixed run.
const CACHE_ENTRIES: usize = 64;
/// Misses per run checked against an in-process reference episode.
const REFERENCE_SAMPLE: usize = 8;
/// Requests probed in process by the traced run.
const PROBES: usize = 256;

/// A bound server with its hot set warmed.
struct Server {
    server: OptimizeServer,
    addr: SocketAddr,
    /// The warm-up (miss) reply of each hot graph.
    warm: Vec<ReplyFacts>,
}

/// One request's result as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    latency_ms: f64,
    late_ms: f64,
    hit: bool,
}

fn send(addr: SocketAddr, graph: &RequestGraph) -> Result<HttpReply, String> {
    http_call(addr, "POST", "/optimize", graph.body.as_bytes()).map_err(|e| format!("{}: {e}", graph.label))
}

/// The full output check of one reply (see [`check_reply`]).
fn check(reply: &HttpReply, graph: &RequestGraph, expect_hit: bool) -> Result<ReplyFacts, String> {
    check_reply(reply.status, &reply.body, &IoShapes::of(&graph.graph), expect_hit)
        .map_err(|e| format!("{}: {e}", graph.label))
}

/// Checks one client's hits. The first reply for each hot graph gets the
/// full check and must equal the miss that filled its cache entry; every
/// later reply for that graph must repeat it byte for byte, which makes it
/// pass the same checks without parsing it again.
struct HitChecker<'a> {
    /// The warm-up (miss) reply of each hot graph.
    warm: &'a [ReplyFacts],
    hot: &'a [RequestGraph],
    verified: Vec<Option<String>>,
}

impl<'a> HitChecker<'a> {
    fn new(warm: &'a [ReplyFacts], hot: &'a [RequestGraph]) -> Self {
        Self { warm, hot, verified: vec![None; hot.len()] }
    }

    fn check(&mut self, i: usize, reply: HttpReply) -> Result<(), String> {
        let graph = &self.hot[i];
        if reply.status == 200 && self.verified[i].as_deref() == Some(reply.body.as_str()) {
            return Ok(());
        }
        let facts = check(&reply, graph, true)?;
        if facts != self.warm[i] {
            return Err(format!("{}: hit differs from the miss that filled it", graph.label));
        }
        if self.verified[i].is_some() {
            return Err(format!("{}: hit reply bytes changed between requests", graph.label));
        }
        self.verified[i] = Some(reply.body);
        Ok(())
    }
}

/// Builds the service from the policy snapshot, binds it on an ephemeral
/// localhost port and warms the cache with the hot set. Returns the server,
/// the set-up time (s) and the warm-up miss latencies (ms).
fn set_up(
    config: &XrlflowConfig,
    snapshot: &ParamSnapshot,
    hot: &[RequestGraph],
    out: &mut Outcome,
) -> Option<(Server, f64, Vec<f64>)> {
    let start = Instant::now();
    let built =
        OptimizeService::from_snapshot(config, snapshot).map_err(|e| e.to_string()).and_then(|service| {
            let budget =
                CacheConfig::builder().max_entries(CACHE_ENTRIES).build().map_err(|e| e.to_string())?;
            service.set_cache_config(budget);
            OptimizeServer::bind(Arc::new(service), "127.0.0.1:0").map_err(|e| e.to_string())
        });
    let server = match built {
        Ok(server) => server,
        Err(e) => {
            out.fail(format!("service set-up failed: {e}"));
            return None;
        }
    };
    let addr = server.local_addr();
    let mut warm = Vec::with_capacity(hot.len());
    let mut warm_ms = Vec::with_capacity(hot.len());
    for graph in hot {
        let (reply, ms) = timed(|| send(addr, graph));
        warm_ms.push(ms);
        out.attempted += 1;
        match reply.and_then(|reply| check(&reply, graph, false)) {
            Ok(facts) => warm.push(facts),
            Err(e) => {
                out.fail(format!("warm-up: {e}"));
                return None;
            }
        }
    }
    Some((Server { server, addr, warm }, start.elapsed().as_secs_f64(), warm_ms))
}

/// serve_hot's open loop: `clients` generator threads; request `k` is due
/// at `start + k / HOT_RATE` and goes to thread `k % clients`.
fn hot_load(
    server: &Server,
    hot: &[RequestGraph],
    schedule: &[usize],
    clients: usize,
    out: &mut Outcome,
) -> (Vec<Sent>, f64) {
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Vec<Result<Sent, String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut checker = HitChecker::new(&server.warm, hot);
                    let mut sent = Vec::new();
                    for k in (client..schedule.len()).step_by(clients) {
                        let due = start + Duration::from_secs_f64(k as f64 / HOT_RATE);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                        let reply = send(server.addr, &hot[schedule[k]]);
                        let latency_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                        let checked = reply.and_then(|reply| checker.check(schedule[k], reply));
                        sent.push(checked.map(|()| Sent { latency_ms, late_ms, hit: true }));
                    }
                    sent
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    (collect_results(results, out), elapsed_s)
}

fn collect_results(results: Vec<Vec<Result<Sent, String>>>, out: &mut Outcome) -> Vec<Sent> {
    let mut sent = Vec::new();
    for result in results.into_iter().flatten() {
        out.attempted += 1;
        match result {
            Ok(s) => sent.push(s),
            Err(e) => out.fail(e),
        }
    }
    sent
}

/// serve_mixed's closed loop: each client sends its sequence, checking each
/// reply before sending the next. Returns the results, the facts of every
/// fresh graph's miss reply, and the wall-clock in seconds.
fn mixed_load(
    server: &Server,
    hot: &[RequestGraph],
    plan_clients: &[Vec<Request>],
    fresh: &[RequestGraph],
    out: &mut Outcome,
) -> (Vec<Sent>, Vec<Option<ReplyFacts>>, f64) {
    let start = Instant::now();
    type ClientOut = (Vec<Result<Sent, String>>, Vec<(usize, ReplyFacts)>);
    let results: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan_clients
            .iter()
            .map(|sequence| {
                scope.spawn(move || {
                    let mut checker = HitChecker::new(&server.warm, hot);
                    let mut sent = Vec::with_capacity(sequence.len());
                    let mut misses = Vec::new();
                    for request in sequence {
                        let (graph, hit) = match *request {
                            Request::Hot(i) => (&hot[i], true),
                            Request::Fresh(j) => (&fresh[j], false),
                        };
                        let (reply, latency_ms) = timed(|| send(server.addr, graph));
                        let checked = reply.and_then(|reply| match *request {
                            Request::Hot(i) => checker.check(i, reply),
                            Request::Fresh(j) => {
                                check(&reply, graph, false).map(|facts| misses.push((j, facts)))
                            }
                        });
                        sent.push(checked.map(|()| Sent { latency_ms, late_ms: 0.0, hit }));
                    }
                    (sent, misses)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut facts = vec![None; fresh.len()];
    let mut all = Vec::new();
    for (sent, misses) in results {
        all.push(sent);
        for (j, f) in misses {
            facts[j] = Some(f);
        }
    }
    (collect_results(all, out), facts, elapsed_s)
}

/// Re-optimises `graph` in process — a fresh `Environment`, no HTTP, no
/// cache — and checks the served reply against it. Returns the episode's
/// wall-clock in ms.
fn check_reference(
    agent: &XrlflowAgent,
    config: &XrlflowConfig,
    graph: &RequestGraph,
    served: &ReplyFacts,
    out: &mut Outcome,
) -> f64 {
    let (result, ms) = timed(|| {
        let mut env = fresh_env(config, &graph.graph);
        greedy_optimize(agent, &mut env, &mut XorShiftRng::new(graph.key))
    });
    let reference = ReplyFacts {
        graph_hash: result.graph.canonical_hash(),
        initial_latency_ms: result.initial_latency_ms,
        final_latency_ms: result.final_latency_ms,
        steps: result.steps,
    };
    out.check(&reference == served, || {
        format!("{}: served miss {served:?} differs from the in-process reference {reference:?}", graph.label)
    });
    ms
}

fn fresh_env(config: &XrlflowConfig, graph: &Graph) -> Environment {
    Environment::new(
        graph.clone(),
        RuleSet::standard(),
        InferenceSimulator::new(DeviceProfile::default()),
        config.env.clone(),
    )
}

fn latencies(sent: &[Sent], keep: impl Fn(&Sent) -> bool) -> Samples {
    let mut s = Samples::default();
    for x in sent.iter().filter(|x| keep(x)) {
        s.push(x.latency_ms);
    }
    s
}

/// One pass: a fresh set-up followed by the whole load.
struct Pass {
    server: Server,
    setup_s: f64,
    /// The hot set's warm-up (miss) latencies, in ms.
    warm_ms: Vec<f64>,
    sent: Vec<Sent>,
    rps: f64,
    obs: ObsReading,
    /// The fresh graphs' miss replies (serve_mixed only).
    miss_facts: Vec<Option<ReplyFacts>>,
    /// Process CPU time over the load, in seconds.
    cpu_s: f64,
    /// Share of the pass the vCPUs ran when they wanted to
    /// ([`Stopwatch::unstolen_share`]; serve_mixed only, 1 for serve_hot).
    unstolen: f64,
}

impl Pass {
    fn all(&self) -> Samples {
        latencies(&self.sent, |_| true)
    }

    fn hits(&self) -> Samples {
        latencies(&self.sent, |s| s.hit)
    }

    /// The misses the pass timed: those of the load (serve_mixed), or the
    /// hot set's warm-up (serve_hot, whose load has none).
    fn misses(&self, mixed: bool) -> Samples {
        if mixed {
            return latencies(&self.sent, |s| !s.hit);
        }
        let mut warm = Samples::default();
        for &ms in &self.warm_ms {
            warm.push(ms);
        }
        warm
    }
}

/// The median over passes of `f`.
fn across(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let mut values = Samples::default();
    for pass in passes {
        values.push(f(pass));
    }
    values.median()
}

pub fn run(args: &Args, config: &XrlflowConfig, clients: usize, mixed: bool) -> Outcome {
    let mut out = Outcome::default();
    let hot = hot_set();
    let agent = XrlflowAgent::new(config, crate::POLICY_SEED);
    let snapshot = agent.snapshot();
    let per_pass_s = args.seconds as f64 / PASSES as f64;
    let schedule = hot_schedule(args.seed, (HOT_RATE * per_pass_s) as usize, hot.len());
    let plan = mixed_plan(args.seed, clients, (MIXED_PER_CLIENT_PER_S as f64 * per_pass_s) as usize, &hot);
    out.notes.push(if mixed {
        format!(
            "load per pass: closed loop, {clients} clients x {} requests, {} fresh graphs, cache budget {CACHE_ENTRIES} entries",
            plan.clients[0].len(),
            plan.fresh.len()
        )
    } else {
        format!(
            "load per pass: open loop, {HOT_RATE} rps offered, {} requests over {clients} generator threads",
            schedule.len()
        )
    });

    let one_pass = |out: &mut Outcome| -> Option<Pass> {
        let watch = Stopwatch::start();
        let (server, setup_s, warm_ms) = set_up(config, &snapshot, &hot, out)?;
        let before = ObsReading::now();
        let cpu_before = process_cpu_s();
        let (sent, miss_facts, elapsed_s) = if mixed {
            mixed_load(&server, &hot, &plan.clients, &plan.fresh, out)
        } else {
            let (sent, elapsed_s) = hot_load(&server, &hot, &schedule, clients, out);
            (sent, Vec::new(), elapsed_s)
        };
        let obs = ObsReading::now().since(&before);
        let cpu_s = process_cpu_s() - cpu_before;
        // The closed loop keeps the vCPUs busy, so stolen time slows its
        // completions directly and its rate is counted on unstolen time.
        // The open loop's rate is set by its schedule. Latencies stay raw.
        let unstolen = if mixed { watch.unstolen_share() } else { 1.0 };
        let rps = sent.len() as f64 / (elapsed_s * unstolen);
        Some(Pass { server, setup_s, warm_ms, sent, rps, obs, miss_facts, cpu_s, unstolen })
    };

    let mut passes: Vec<Pass> = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        // The previous pass's server shuts down before the next one binds.
        if let Some(last) = passes.last_mut() {
            last.server.server.shutdown();
        }
        match one_pass(&mut out) {
            Some(pass) => passes.push(pass),
            None => return out,
        }
    }

    // Every pass serves the same inputs with the same policy, so the warm-up
    // and miss replies must repeat exactly; the first pass's are also
    // checked against in-process references (every hot graph and a seeded
    // sample of the fresh graphs).
    for pass in &passes[1..] {
        out.check(pass.server.warm == passes[0].server.warm, || {
            "warm-up replies differ between passes".into()
        });
        out.check(pass.miss_facts == passes[0].miss_facts, || "miss replies differ between passes".into());
    }
    let first = &passes[0];
    let mut greedy_ms = Samples::default();
    for (graph, served) in hot.iter().zip(&first.server.warm) {
        greedy_ms.push(check_reference(&agent, config, graph, served, &mut out));
    }
    let sample = sample_indices(args.seed, plan.fresh.len(), REFERENCE_SAMPLE);
    if mixed {
        for &j in &sample {
            match &first.miss_facts[j] {
                Some(served) => {
                    greedy_ms.push(check_reference(&agent, config, &plan.fresh[j], served, &mut out))
                }
                None => out.fail(format!("{}: no miss reply recorded", plan.fresh[j].label)),
            }
        }
    }

    let mut setup_s = Samples::default();
    for pass in &passes {
        setup_s.push(pass.setup_s);
    }
    let mut served_ratios: Vec<f64> =
        first.server.warm.iter().map(|f| f.final_latency_ms / f.initial_latency_ms).collect();
    served_ratios
        .extend(first.miss_facts.iter().flatten().map(|f| f.final_latency_ms / f.initial_latency_ms));
    let ops: usize = passes.iter().map(|p| p.sent.len()).sum();
    let hits: usize = passes.iter().map(|p| p.hits().len()).sum();
    let misses: usize = passes.iter().map(|p| p.misses(mixed).len()).sum();
    out.metric("setup_s", "s", setup_s.median(), setup_s.len());
    out.metric("reduction_pct", "%", geomean_reduction_pct(&served_ratios), served_ratios.len());
    out.metric("op_per_s", "1/s", across(&passes, |p| p.rps), ops);
    out.metric("op_p50_ms", "ms", across(&passes, |p| p.all().median()), ops);
    out.extra("peak_rss_mb", "MB", peak_rss_mb(), 1);
    out.extra("op_p90_ms", "ms", across(&passes, |p| p.all().quantile(0.9)), ops);
    out.extra("op_p99_ms", "ms", across(&passes, |p| p.all().quantile(0.99)), ops);
    out.extra("hit_p50_ms", "ms", across(&passes, |p| p.hits().median()), hits);
    out.extra("hit_p99_ms", "ms", across(&passes, |p| p.hits().quantile(0.99)), hits);
    out.extra("miss_p50_ms", "ms", across(&passes, |p| p.misses(mixed).median()), misses);
    out.extra("miss_p90_ms", "ms", across(&passes, |p| p.misses(mixed).quantile(0.9)), misses);
    out.extra("cpu_ms_per_op", "ms", across(&passes, |p| p.cpu_s * 1e3 / p.sent.len() as f64), ops);
    out.extra("unstolen_share", "ratio", across(&passes, |p| p.unstolen), passes.len());
    if !mixed {
        let late = |p: &Pass, q: f64| {
            let mut late = Samples::default();
            for s in &p.sent {
                late.push(s.late_ms);
            }
            late.quantile(q)
        };
        out.extra("generator_late_p50_ms", "ms", across(&passes, |p| late(p, 0.5)), ops);
        out.extra("generator_late_p99_ms", "ms", across(&passes, |p| late(p, 0.99)), ops);
        out.extra("generator_late_max_ms", "ms", across(&passes, |p| late(p, 1.0)), ops);
    }
    out.extra("fail_frac", "ratio", ratio(out.failed as f64, out.attempted as f64), out.attempted as usize);
    out.notes.push(format!(
        "{PASSES} passes, each a fresh set-up and the same load; every metric is the median over passes{}",
        if mixed { ", the rate counted on unstolen vCPU time" } else { "" }
    ));

    if args.trace {
        let mut untraced_p50 = Samples::default();
        for pass in &passes {
            untraced_p50.push(pass.hits().median());
        }
        for pass in &mut passes {
            pass.server.server.shutdown();
        }
        let Some(traced) = one_pass(&mut out) else {
            return out;
        };
        let mut layers = Outcome::default();
        let traced_hits = traced.hits();
        let probe_graphs: Vec<&RequestGraph> = if mixed {
            plan.clients[0]
                .iter()
                .map(|r| match *r {
                    Request::Hot(i) => &hot[i],
                    Request::Fresh(j) => &plan.fresh[j],
                })
                .take(PROBES)
                .collect()
        } else {
            schedule.iter().take(PROBES).map(|&i| &hot[i]).collect()
        };
        probe_layers(&mut layers, &traced.server, &probe_graphs, &hot, traced_hits.median());
        let d = &traced.obs;
        layers.metric(
            "serve.hit_ratio",
            "ratio",
            ratio(d.cache_hits as f64, d.requests as f64),
            d.requests as usize,
        );
        layers.metric("serve.cache_evictions", "count", d.evictions as f64, d.requests as usize);
        layers.metric("serve.http_non2xx", "count", d.http_non2xx as f64, d.requests as usize);
        layers.metric("core.greedy_episode_ms", "ms", greedy_ms.median(), greedy_ms.len());
        layers.metric(
            "bench.trace_overhead_pct",
            "%",
            (traced_hits.median() / untraced_p50.median() - 1.0) * 100.0,
            traced_hits.len(),
        );
        push_obs_layers(&mut layers, d);
        // Replay the workload's misses: the hot set's warm-up episodes, or
        // the sampled fresh graphs.
        let replayed: Vec<&RequestGraph> =
            if mixed { sample.iter().map(|&j| &plan.fresh[j]).collect() } else { hot.iter().collect() };
        let episodes: Vec<Episode> = replayed
            .iter()
            .map(|g| Episode {
                make_env: Box::new(move || fresh_env(config, &g.graph)),
                reset_seed: 0,
                rng_seed: g.key,
            })
            .collect();
        push_replay_layers(&mut layers, &replay(&agent, &episodes, true));
        out.adopt_layers(layers);
    }
    out
}

/// In-process probes of the request path's layers on the workload's own
/// request mix: JSON import, hashing, export, cache lookup and insert, and
/// a whole in-process hit; the HTTP overhead is the measured HTTP hit
/// latency minus the in-process hit.
fn probe_layers(
    out: &mut Outcome,
    server: &Server,
    graphs: &[&RequestGraph],
    hot: &[RequestGraph],
    http_hit_ms: f64,
) {
    let service = server.server.service();
    let (mut from_json, mut hash, mut to_json, mut get, mut insert, mut hit) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let budget = service.cache_config();
    let mut cache = match ResultCache::from_json_with_config(&service.cache_to_json(), budget) {
        Ok(cache) => cache,
        Err(e) => {
            out.fail(format!("cache snapshot does not reload: {e}"));
            return;
        }
    };
    let mut inserted = ResultCache::with_config(budget);
    for g in graphs {
        let (parsed, ms) = timed(|| Graph::from_json(&g.body));
        from_json.push(ms * 1e3);
        let Ok(parsed) = parsed else {
            out.fail(format!("{}: request body does not import", g.label));
            continue;
        };
        let (key, ms) = timed(|| parsed.canonical_hash());
        hash.push(ms * 1e3);
        let (_, ms) = timed(|| std::hint::black_box(parsed.to_json()));
        to_json.push(ms * 1e3);
        let (_, ms) = timed(|| std::hint::black_box(cache.get(key).is_some()));
        get.push(ms * 1e3);
        let entry =
            CacheEntry { graph: Arc::new(parsed), initial_latency_ms: 1.0, final_latency_ms: 1.0, steps: 0 };
        let (_, ms) = timed(|| inserted.insert(key, entry));
        insert.push(ms * 1e3);
    }
    for g in graphs.iter().filter(|g| hot.iter().any(|h| h.key == g.key)) {
        let (reply, ms) = timed(|| service.optimize_json(&g.body));
        hit.push(ms * 1e3);
        out.check(matches!(reply, Ok(r) if r.cache_hit), || format!("{}: in-process probe missed", g.label));
    }
    out.metric("graph.from_json_us", "us", from_json.median(), from_json.len());
    out.metric("graph.canonical_hash_us", "us", hash.median(), hash.len());
    out.metric("graph.to_json_us", "us", to_json.median(), to_json.len());
    out.metric("serve.cache_get_us", "us", get.median(), get.len());
    out.metric("serve.cache_insert_us", "us", insert.median(), insert.len());
    out.metric("serve.optimize_hit_us", "us", hit.median(), hit.len());
    out.metric("serve.http_overhead_us", "us", http_hit_ms * 1e3 - hit.median(), hit.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::reply_body;

    fn reply(body: String) -> HttpReply {
        HttpReply { status: 200, body }
    }

    #[test]
    fn hit_checker_accepts_repeats_and_rejects_tampered_hits() {
        let hot = &hot_set()[..1];
        let body = reply_body(&hot[0].graph, true, 2.0, 1.5);
        let warm = [check(&reply(body.clone()), &hot[0], true).unwrap()];
        let mut checker = HitChecker::new(&warm, hot);
        assert!(checker.check(0, reply(body.clone())).is_ok());
        assert!(checker.check(0, reply(body.clone())).is_ok(), "a byte-identical repeat passes");
        let flipped = reply_body(&hot[0].graph, false, 2.0, 1.5);
        assert!(checker.check(0, reply(flipped)).is_err(), "a flipped cache_hit flag fails");
        let other = reply_body(&hot[0].graph, true, 2.0, 1.25);
        assert!(checker.check(0, reply(other)).is_err(), "a reply unlike the filling miss fails");
        assert!(checker.check(0, HttpReply { status: 500, body }).is_err(), "a non-200 repeat fails");
    }
}
