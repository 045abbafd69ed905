//! End-to-end contract of the `clasp-serve` stack: replies are
//! bit-identical whatever the admission width, however many clients
//! race, and whether the artifact was computed this process or promoted
//! from a persisted tier — and one misbehaving client never takes the
//! daemon down.

use clasp::serve::{Client, Server};
use clasp::{CompileService, RegisterModelKind, ServiceConfig, ServiceReply, ServiceRequest};
use std::path::PathBuf;
use std::sync::Arc;

const LOOPS: [&str; 3] = [
    "loop dot\n\nop n0 load\nop n1 load\nop n2 fmul\nop n3 fadd\n\ndep n0 -> n2\ndep n1 -> n2\ndep n2 -> n3\ndep n3 -> n3 @1\n",
    "loop chain\n\nop n0 load\nop n1 alu\nop n2 alu\nop n3 store\n\ndep n0 -> n1\ndep n1 -> n2\ndep n2 -> n3\n",
    "loop rec\n\nop n0 alu\nop n1 alu\n\ndep n0 -> n1\ndep n1 -> n0 @1\n",
];

fn machine_text() -> String {
    clasp_text::write_machine(&clasp_machine::presets::two_cluster_gp(2, 1))
}

fn requests() -> Vec<ServiceRequest> {
    LOOPS
        .iter()
        .map(|l| {
            let mut sreq = ServiceRequest::new(*l, machine_text());
            sreq.request.register_model = RegisterModelKind::Rotating;
            sreq.request.iterations = 12;
            sreq
        })
        .collect()
}

fn serve_width(threads: usize) -> Server {
    let service = CompileService::new(ServiceConfig {
        threads,
        ..ServiceConfig::default()
    })
    .expect("memory-only service");
    Server::start("127.0.0.1:0", Arc::new(service)).expect("bind ephemeral port")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clasp-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn replies_are_invariant_across_admission_width_and_racing_clients() {
    // Reference replies: width-1 daemon, one client, serial.
    let narrow = serve_width(1);
    let mut client = Client::connect(narrow.addr()).unwrap();
    let reference: Vec<String> = requests()
        .iter()
        .map(|r| client.compile(r).unwrap().render())
        .collect();
    narrow.shutdown().unwrap();

    // Wide daemon, four clients racing the same requests from threads:
    // every reply must be byte-for-byte the reference.
    let wide = serve_width(4);
    let addr = wide.addr();
    let reference = Arc::new(reference);
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for (sreq, expected) in requests().iter().zip(reference.iter()) {
                    let reply = client.compile(sreq).unwrap().render();
                    assert_eq!(&reply, expected, "reply diverged under contention");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    wide.shutdown().unwrap();
}

#[test]
fn cold_and_persisted_warm_daemons_answer_identically() {
    let dir = tmpdir("cold-warm");
    let config = || ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    let cold_server = Server::start(
        "127.0.0.1:0",
        Arc::new(CompileService::new(config()).unwrap()),
    )
    .unwrap();
    let mut client = Client::connect(cold_server.addr()).unwrap();
    let cold: Vec<String> = requests()
        .iter()
        .map(|r| client.compile(r).unwrap().render())
        .collect();
    cold_server.shutdown().unwrap();

    let warm_server = Server::start(
        "127.0.0.1:0",
        Arc::new(CompileService::new(config()).unwrap()),
    )
    .unwrap();
    let mut client = Client::connect(warm_server.addr()).unwrap();
    for (sreq, expected) in requests().iter().zip(&cold) {
        assert_eq!(
            &client.compile(sreq).unwrap().render(),
            expected,
            "promoted reply diverged from computed"
        );
    }
    let stats = client.stats().unwrap();
    assert!(
        stats.contains(&format!("disk {} hits", requests().len())),
        "every warm reply must come from the persisted tier: {stats}"
    );
    warm_server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_misbehaving_client_is_isolated_and_shutdown_stays_graceful() {
    let server = serve_width(2);
    let addr = server.addr();

    // One client floods garbage: oversized frame announcements, raw
    // bytes, a malformed compile body.
    {
        use std::io::Write as _;
        let mut rogue = std::net::TcpStream::connect(addr).unwrap();
        rogue.write_all(&u32::MAX.to_be_bytes()).unwrap();
        // Connection is dropped by the server; writing more may fail,
        // which is the rogue's problem, not the daemon's.
        let _ = rogue.write_all(b"leftover noise");
    }
    let mut rude = Client::connect(addr).unwrap();
    let reply = rude
        .roundtrip("clasp-serve/1 compile\nnot a header\n")
        .unwrap();
    assert!(reply.contains("bad-request"));

    // A healthy client on the same daemon is unaffected.
    let mut client = Client::connect(addr).unwrap();
    assert!(client.ping().unwrap());
    let ok = client.compile(&requests()[0]).unwrap();
    assert!(ok.outcome.is_ok());

    // Graceful shutdown with idle connections (`rude`, `client`) still
    // open: the daemon must not hang waiting on them.
    server.shutdown().unwrap();
    assert!(
        Client::connect(addr).is_err() || {
            // The listener may linger briefly on some platforms; a
            // connect that succeeds must at least fail to round-trip.
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        },
        "daemon must stop serving after shutdown"
    );
}

/// `LOOPS[0]` respelled: a comment, other op ids (the quoted labels keep
/// the display names the canonical rendering shows) and other spacing.
/// It parses to the same canonical loop text, so to the same cache key.
const DOT_RELABELLED: &str = "# dot product, respelled\nloop dot\n\nop x   load \"n0\"\nop y   load \"n1\"\nop mul fmul \"n2\"\nop acc fadd \"n3\"\n\ndep x -> mul\ndep y -> mul\ndep mul -> acc\ndep acc  ->  acc @1\n";

/// The 2c-gp machine text under another display name.
fn renamed_machine_text() -> String {
    let text = machine_text();
    let (_, rest) = text.split_once('\n').expect("machine header line");
    format!("machine another-name\n{rest}")
}

#[test]
fn two_wire_spellings_share_one_entry_and_one_reply() {
    let service = CompileService::in_memory();
    let plain = requests()[0].render();
    let mut other = requests()[0].clone();
    other.loop_text = DOT_RELABELLED.to_string();
    other.machine_text = renamed_machine_text();
    let other = other.render();
    assert_ne!(plain, other, "two spellings");

    let first = service.respond(&plain);
    assert!(first.contains(" reply ok\n"), "{first}");
    for wire in [&other, &plain, &other, &plain] {
        assert_eq!(service.respond(wire), first, "reply depends on spelling");
    }
    let stats = service.tiered_stats().memory;
    assert_eq!((stats.misses, stats.hits, stats.entries), (1, 4, 1));
}

#[test]
fn traced_requests_always_carry_their_own_trace() {
    let service = CompileService::in_memory();
    let untraced = requests()[1].clone();
    let mut traced = untraced.clone();
    traced.capture_trace = true;
    // Warm the untraced spelling so it is aliased, then ask with a trace.
    let plain = service.respond(&untraced.render());
    assert_eq!(service.respond(&untraced.render()), plain);
    let mut outcomes = Vec::new();
    for _ in 0..3 {
        let reply = ServiceReply::parse(&service.respond(&traced.render())).unwrap();
        let trace = reply.trace.expect("a traced request gets a trace");
        assert!(trace.contains("cache.lookup"), "{trace}");
        outcomes.push(trace.contains("\"outcome\": \"hit\""));
        // The artifact is the untraced reply's.
        assert_eq!(
            ServiceReply {
                trace: None,
                ..reply
            }
            .render(),
            plain
        );
    }
    assert_eq!(outcomes, [true; 3], "every traced lookup is a recorded hit");
    let stats = service.tiered_stats().memory;
    assert_eq!((stats.misses, stats.hits), (1, 4));
}

/// A fixed request sequence over a byte-budgeted memory tier with a
/// disk tier below it: two spellings of one request, two more loops,
/// a traced request and a bad one, three rounds.
fn fixed_sequence(dir: &std::path::Path) -> clasp_exec::TieredStats {
    let service = CompileService::new(ServiceConfig {
        threads: 2,
        memory_budget: Some(700),
        cache_dir: Some(dir.to_path_buf()),
    })
    .unwrap();
    let reqs = requests();
    let mut respelled = reqs[0].clone();
    respelled.loop_text = DOT_RELABELLED.to_string();
    respelled.machine_text = renamed_machine_text();
    let mut traced = reqs[2].clone();
    traced.capture_trace = true;
    let wires = [
        reqs[0].render(),
        respelled.render(),
        reqs[1].render(),
        traced.render(),
        reqs[2].render(),
        "clasp-serve/1 compile\nnot a header\n".to_string(),
        reqs[0].render(),
    ];
    for _ in 0..3 {
        for wire in &wires {
            service.respond(wire);
        }
    }
    service.tiered_stats()
}

#[test]
fn counters_for_a_fixed_sequence_are_pinned() {
    // Recorded before the wire alias path existed: which path answers a
    // request must not show in any counter.
    let dir = tmpdir("fixed-sequence");
    let stats = fixed_sequence(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let memory = stats.memory;
    assert_eq!(
        (memory.hits, memory.misses, memory.entries, memory.evictions),
        (13, 5, 2, 3),
        "{stats:?}"
    );
    assert_eq!(memory.resident_bytes, 636, "{stats:?}");
    let disk = stats.disk;
    assert_eq!(
        (
            disk.hits,
            disk.misses,
            disk.errors,
            disk.stores,
            stats.promotions
        ),
        (2, 3, 0, 3, 2),
        "{stats:?}"
    );
}

#[test]
fn racing_respond_counts_one_miss_per_wire() {
    // 12 distinct canonical requests (3 loops x 4 iteration counts),
    // 8 threads each sending every wire 25 times in a rotated order.
    let wires: Vec<String> = requests()
        .into_iter()
        .flat_map(|sreq| {
            [4, 8, 12, 16].map(|iterations| {
                let mut sreq = sreq.clone();
                sreq.request.iterations = iterations;
                sreq.render()
            })
        })
        .collect();
    assert_eq!(wires.len(), 12);
    let service = CompileService::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let reference: Vec<String> = {
        let fresh = CompileService::in_memory();
        wires.iter().map(|w| fresh.respond(w)).collect()
    };
    const THREADS: usize = 8;
    const ROUNDS: usize = 25;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (service, wires, reference) = (&service, &wires, &reference);
            s.spawn(move || {
                for r in 0..ROUNDS * wires.len() {
                    let i = (r + t * 5) % wires.len();
                    assert_eq!(service.respond(&wires[i]), reference[i]);
                }
            });
        }
    });
    let stats = service.tiered_stats().memory;
    let requests = (THREADS * ROUNDS * wires.len()) as u64;
    assert_eq!(stats.misses, 12);
    assert_eq!(stats.hits, requests - 12);
    assert_eq!(stats.entries, 12);
}
