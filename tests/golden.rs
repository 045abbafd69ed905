//! Golden digest manifest: the Figure 5 pipeline's outputs on the bench
//! corpus, pinned in `results/golden-bench-corpus.txt`.
//!
//! The manifest holds one line per loop of the 150-loop bench corpus
//! (`generate_corpus` at seed `0x1998_C1A5` on `four_cluster_gp(4, 2)`),
//! plus the paper's Figure 6 graph and a 16-wide independent graph on
//! the same machine, plus Figure 6 on a 2-wide unified machine, then the
//! same corpus again on the point-to-point `pe-grid2x3` and `mesh3x3`
//! fabrics, whose copies are routed hop by hop. Each
//! line records the unified II and a digest of its start cycles, the
//! `compare_with_unified` clustered II, the `assign_from(.., 1)` II, copy
//! count and cluster-map digest, and a digest of the `compile_full`
//! artifact under the bench request (MVE, no restage, 16 iterations, no
//! verify). Digests are `clasp_exec::KeyBuilder` hashes of existing
//! renderings (`codec::encode`, `CompiledArtifact::kernel_table`, and
//! the derived `Debug` of maps, copies and programs).
//!
//! The committed file was recorded from the original per-II reference
//! implementation while it still agreed with the amortized pipeline on
//! every line, so a match here means the figures, assignments and
//! kernels are unchanged. On a mismatch the freshly rendered manifest
//! is written to `target/golden-bench-corpus.txt`; after reviewing an
//! intentional change, copy it over the committed file.

use std::fmt::Write as _;
use std::path::Path;

use clasp::{
    codec, compare_with_unified, compile_full, unified_ii, CompileRequest, PipelineConfig,
};
use clasp_core::assign_from;
use clasp_ddg::{Ddg, OpKind};
use clasp_exec::KeyBuilder;
use clasp_loopgen::{generate_corpus, CorpusConfig};
use clasp_machine::{presets, MachineSpec};
use clasp_sched::schedule_unified;

const MANIFEST: &str = "results/golden-bench-corpus.txt";
const ITERATIONS: i64 = 16;

/// The bench corpus (same shape and seed as `bench-report`).
fn bench_corpus() -> Vec<Ddg> {
    const LOOPS: usize = 150;
    generate_corpus(CorpusConfig {
        loops: LOOPS,
        scc_loops: (LOOPS * 301).div_ceil(1327),
        seed: 0x1998_C1A5,
    })
}

/// The paper's Figure 6 loop: a chain with one carried recurrence.
fn fig6() -> Ddg {
    let mut g = Ddg::new("fig6");
    let a = g.add_named(OpKind::IntAlu, "A");
    let b = g.add_named(OpKind::IntAlu, "B");
    let c = g.add_named(OpKind::Load, "C");
    let d = g.add_named(OpKind::IntAlu, "D");
    let e = g.add_named(OpKind::IntAlu, "E");
    let f = g.add_named(OpKind::IntAlu, "F");
    g.add_dep(a, b);
    g.add_dep(b, c);
    g.add_dep(c, d);
    g.add_dep(d, e);
    g.add_dep(e, f);
    g.add_dep_carried(d, b, 1);
    g
}

/// Sixteen independent integer operations: pure resource pressure.
fn wide() -> Ddg {
    let mut g = Ddg::new("wide");
    for _ in 0..16 {
        g.add(OpKind::IntAlu);
    }
    g
}

fn digest(parts: impl FnOnce(&mut KeyBuilder)) -> String {
    let mut key = KeyBuilder::new();
    parts(&mut key);
    key.finish().to_string()
}

fn or_dash<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// One manifest line: every pinned output of `g` on `machine`.
fn render_line(machine: &MachineSpec, g: &Ddg) -> String {
    let config = PipelineConfig::default();
    let unified = unified_ii(g, machine, config.sched).ok();
    let unified_sched = schedule_unified(g, &machine.unified_equivalent(), config.sched)
        .ok()
        .map(|s| {
            digest(|k| {
                k.stream(|w| {
                    for v in g.node_ids() {
                        let _ = write!(w, "{v:?} {:?};", s.start(v));
                    }
                })
            })
        });
    let clustered = compare_with_unified(g, machine, config)
        .ok()
        .map(|(c, _)| c);
    let assigned = assign_from(g, machine, config.assign, 1).ok();
    let map = assigned.as_ref().map(|a| {
        digest(|k| {
            k.stream(|w| {
                for (n, c) in a.map.iter() {
                    let _ = write!(w, "{n:?} {c:?};");
                }
            });
            k.stream(|w| {
                for (n, meta) in a.map.copies() {
                    let _ = write!(w, "{n:?} {meta:?};");
                }
            });
        })
    });
    let request = CompileRequest {
        pipeline: config,
        restage: false,
        iterations: ITERATIONS,
        verify: false,
        ..CompileRequest::default()
    };
    let full = compile_full(g, machine, &request);
    let artifact = digest(|k| {
        k.text(&codec::encode(&full, ITERATIONS));
        if let Ok(a) = &full {
            k.text(&a.kernel_table(machine));
            k.stream(|w| {
                let _ = write!(w, "{:?}", a.program);
            });
        }
    });
    format!(
        "{} {} unified={} unified_sched={} clustered={} assign_ii={} copies={} map={} artifact={artifact}\n",
        machine.name(),
        g.name(),
        or_dash(unified),
        or_dash(unified_sched),
        or_dash(clustered),
        or_dash(assigned.as_ref().map(|a| a.ii)),
        or_dash(assigned.as_ref().map(|a| a.stats.copies)),
        or_dash(map),
    )
}

/// The whole manifest, header included.
fn render_manifest() -> String {
    let machine = presets::four_cluster_gp(4, 2);
    let mut out = String::from(
        "# Golden outputs of the Figure 5 pipeline (rendered by tests/golden.rs).\n\
         # bench corpus: generate_corpus(150 loops, seed 0x1998C1A5) on four_cluster_gp(4, 2);\n\
         # then fig6 and wide on the same machine, and fig6 on unified_gp(2);\n\
         # then the bench corpus on the point-to-point pe-grid2x3 and mesh3x3.\n\
         # fields: machine loop unified unified_sched clustered assign_ii copies map artifact\n",
    );
    for g in bench_corpus().iter().chain([&fig6(), &wide()]) {
        out.push_str(&render_line(&machine, g));
    }
    out.push_str(&render_line(&presets::unified_gp(2), &fig6()));
    for machine in [presets::pe_grid(2, 3), presets::mesh(3, 3)] {
        for g in &bench_corpus() {
            out.push_str(&render_line(&machine, g));
        }
    }
    out
}

/// Splits a data line into its subject (`machine loop`) and its
/// `name=value` fields; a comment line is all subject.
fn split_line(line: &str) -> (String, Vec<(&str, &str)>) {
    if line.starts_with('#') {
        return (line.to_string(), Vec::new());
    }
    let mut tokens = line.split(' ');
    let subject = tokens.by_ref().take(2).collect::<Vec<_>>().join(" ");
    let fields = tokens
        .map(|t| t.split_once('=').unwrap_or((t, "")))
        .collect();
    (subject, fields)
}

/// Compares a committed manifest with a rendered one. On a mismatch the
/// error names each differing line's loop and field (at most ten).
fn compare_manifests(committed: &str, rendered: &str) -> Result<(), String> {
    if committed == rendered {
        return Ok(());
    }
    let committed: Vec<&str> = committed.lines().collect();
    let rendered: Vec<&str> = rendered.lines().collect();
    let mut problems = Vec::new();
    for i in 0..committed.len().max(rendered.len()) {
        match (committed.get(i), rendered.get(i)) {
            (Some(c), Some(r)) if c == r => {}
            (Some(c), Some(r)) => {
                let (cs, cf) = split_line(c);
                let (rs, rf) = split_line(r);
                if cs != rs || cf.len() != rf.len() {
                    problems.push(format!("line {}: committed `{c}`, rendered `{r}`", i + 1));
                    continue;
                }
                for ((name, cv), (rname, rv)) in cf.iter().zip(&rf) {
                    if name != rname {
                        problems.push(format!("{cs}: field `{name}` renamed to `{rname}`"));
                    } else if cv != rv {
                        problems.push(format!(
                            "{cs}: field `{name}` is {cv} in the manifest but renders as {rv}"
                        ));
                    }
                }
            }
            (Some(c), None) => {
                problems.push(format!("{}: missing from the rendering", split_line(c).0))
            }
            (None, Some(r)) => problems.push(format!("{}: not in the manifest", split_line(r).0)),
            (None, None) => unreachable!("index below the longer length"),
        }
    }
    if problems.is_empty() {
        problems.push("line endings differ".to_string());
    }
    let total = problems.len();
    problems.truncate(10);
    Err(format!(
        "{total} difference(s), first {}:\n  {}",
        problems.len(),
        problems.join("\n  ")
    ))
}

#[test]
fn pipeline_reproduces_the_golden_manifest() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(root.join(MANIFEST)).expect("read the golden manifest");
    let rendered = render_manifest();
    if let Err(diff) = compare_manifests(&committed, &rendered) {
        let out = root.join("target/golden-bench-corpus.txt");
        let _ = std::fs::create_dir_all(root.join("target"));
        let wrote = std::fs::write(&out, &rendered).is_ok();
        panic!(
            "pipeline outputs drifted from {MANIFEST}: {diff}\n{}",
            if wrote {
                format!("rendered manifest written to {}; review it and copy it over {MANIFEST} if the change is intended", out.display())
            } else {
                "could not write the rendered manifest".to_string()
            }
        );
    }
}

#[test]
fn a_perturbed_field_is_named_with_its_loop() {
    let committed = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(MANIFEST))
        .expect("read the golden manifest");
    assert_eq!(compare_manifests(&committed, &committed), Ok(()));

    let line = committed
        .lines()
        .find(|l| l.contains(" synth-0042 "))
        .expect("manifest has synth-0042");
    let copies = line
        .split(' ')
        .find_map(|t| t.strip_prefix("copies="))
        .expect("line has a copies field");
    let bumped = copies.parse::<u32>().expect("copy count") + 1;
    let perturbed = committed.replace(
        line,
        &line.replace(&format!("copies={copies} "), &format!("copies={bumped} ")),
    );
    let err = compare_manifests(&committed, &perturbed).expect_err("perturbation must be caught");
    assert!(err.contains("synth-0042"), "{err}");
    assert!(err.contains("field `copies`"), "{err}");
    assert!(err.starts_with("1 difference(s)"), "{err}");

    let truncated = committed.replacen(line, "", 1);
    let err = compare_manifests(&committed, &truncated).expect_err("a dropped line is caught");
    assert!(err.contains("synth-0042"), "{err}");
}
