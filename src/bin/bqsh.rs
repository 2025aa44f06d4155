//! `bqsh` — a minimal interactive shell over the `big-queries` engine.
//!
//! ```text
//! $ cargo run --bin bqsh
//! bq> create table emp (name str, dept str, sal int)
//! bq> insert into emp values ('ann', 'cs', 90)
//! bq> select e.name from emp e where e.sal > 50
//! bq> begin
//! bq> insert into emp values ('cat', 'cs', 80)
//! bq> commit
//! bq> .connect 127.0.0.1:4990
//! bq> .queries
//! bq> .kill 7
//! bq> .disconnect
//! bq> .datalog tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z). ? tc(1, X)
//! bq> .analyze select e.name from emp e where e.sal > 50
//! bq> .help
//! bq> .quit
//! ```
//!
//! Reads from stdin; every statement is one line. Statements run through a
//! [`Driver`]: embedded by default, or over the wire after `.connect` — the
//! shell cannot tell the difference, which is the point. Dot-commands are
//! dispatched through the single static [`COMMANDS`] table, which is also
//! what `.help` renders — the two cannot drift apart.

use bq_backup::{BackupEngine, DirArchive};
use bq_exec::ExecMode;
use bq_server::{Connection, Driver, EmbeddedDriver, Outcome};
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// The shell's state: the always-present embedded session plus an optional
/// remote one. Statements go to the remote session while it is connected.
struct Shell {
    embedded: EmbeddedDriver,
    remote: Option<Connection>,
    /// Backup engine attached by `.backup <dir>`, keyed by its directory
    /// so later `.backup`/`.scrub` calls reuse the chain.
    backup: Option<(String, Arc<BackupEngine>)>,
}

impl Shell {
    fn new() -> Shell {
        Shell {
            embedded: EmbeddedDriver::default(),
            remote: None,
            backup: None,
        }
    }

    /// The active driver: remote if connected, embedded otherwise.
    fn driver(&mut self) -> &mut dyn Driver {
        match self.remote.as_mut() {
            Some(conn) => conn,
            None => &mut self.embedded,
        }
    }

    /// Commands that reach into the engine (`.profile`, `.datalog`, …)
    /// have no wire equivalent and refuse to run while connected.
    fn require_embedded(&self, cmd: &str) -> Result<(), String> {
        if self.remote.is_some() {
            return Err(format!("{cmd} is embedded-only; .disconnect first"));
        }
        Ok(())
    }
}

/// One shell dot-command: dispatch name, usage line, help text, handler.
struct Command {
    name: &'static str,
    usage: &'static str,
    help: &'static str,
    run: fn(&mut Shell, &str) -> Result<String, String>,
}

/// The single source of truth for dot-commands: the dispatcher looks names
/// up here and `.help` prints exactly this table.
static COMMANDS: &[Command] = &[
    Command {
        name: ".tables",
        usage: ".tables",
        help: "list tables (embedded)",
        run: |sh, _| {
            sh.require_embedded(".tables")?;
            Ok(sh.embedded.with_db(|db| db.tables().join(", ")))
        },
    },
    Command {
        name: ".connect",
        usage: ".connect <host:port>",
        help: "attach to a bq-server; statements then travel the wire",
        run: run_connect,
    },
    Command {
        name: ".disconnect",
        usage: ".disconnect",
        help: "detach from the server; statements run embedded again",
        run: |sh, _| match sh.remote.take() {
            Some(conn) => {
                conn.close();
                Ok("disconnected; statements run embedded".to_string())
            }
            None => Err("not connected".to_string()),
        },
    },
    Command {
        name: ".queries",
        usage: ".queries",
        help: "list running queries (a select over bq.queries; ids feed .kill)",
        run: |sh, _| {
            // The system catalog *is* the interface: this is an ordinary
            // select over the `bq.queries` virtual table, embedded or over
            // the wire — it will list itself, like any honest process list.
            sh.driver()
                .execute(
                    "select q.query, q.session, q.kind, q.elapsed_ms, q.sql \
                     from bq.queries q",
                )
                .map(render_outcome)
                .map_err(|e| e.to_string())
        },
    },
    Command {
        name: ".replicas",
        usage: ".replicas",
        help: "list attached replicas and their lag (a select over bq.replicas)",
        run: |sh, _| {
            // Same philosophy as .queries: replication status is just a
            // select over the `bq.replicas` virtual table, so the same
            // command works embedded, on a primary, or on a replica.
            sh.driver()
                .execute(
                    "select r.replica, r.endpoint, r.state, r.acked_lsn, \
                     r.lag_bytes, r.lag_ms from bq.replicas r",
                )
                .map(render_outcome)
                .map_err(|e| e.to_string())
        },
    },
    Command {
        name: ".slow",
        usage: ".slow [n]",
        help: "show the last n slow-log entries (default 10; a select over bq.slow_log)",
        run: run_slow,
    },
    Command {
        name: ".analyze",
        usage: ".analyze <select>",
        help: "EXPLAIN ANALYZE: run the query, print per-operator rows/time/memory",
        run: |sh, rest| {
            if rest.is_empty() {
                return Err("usage: .analyze <select>".to_string());
            }
            sh.driver()
                .execute(&format!("explain analyze {rest}"))
                .map(render_outcome)
                .map_err(|e| e.to_string())
        },
    },
    Command {
        name: ".kill",
        usage: ".kill <id>",
        help: "cancel a running query by kill id (see .queries)",
        run: |sh, rest| {
            let id = rest
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("bad query id `{rest}`"))?;
            if sh.driver().kill(id).map_err(|e| e.to_string())? {
                Ok(format!("killed query {id}"))
            } else {
                Ok(format!("no running query {id}"))
            }
        },
    },
    Command {
        name: ".prepare",
        usage: ".prepare <select>",
        help: "parse+optimize a select once; returns an id for .exec",
        run: |sh, rest| {
            let id = sh.driver().prepare(rest).map_err(|e| e.to_string())?;
            Ok(format!("prepared statement {id}"))
        },
    },
    Command {
        name: ".exec",
        usage: ".exec <id>",
        help: "run a prepared statement",
        run: |sh, rest| {
            let id = rest
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("bad statement id `{rest}`"))?;
            sh.driver()
                .execute_prepared(id)
                .map(render_outcome)
                .map_err(|e| e.to_string())
        },
    },
    Command {
        name: ".datalog",
        usage: ".datalog <rules> ? <query>",
        help: "run a Datalog program over the tables (embedded)",
        run: run_datalog,
    },
    Command {
        name: ".profile",
        usage: ".profile <sql>",
        help: "run a query, print wall time, plan, counter deltas, and spans (embedded)",
        run: run_profile,
    },
    Command {
        name: ".stats",
        usage: ".stats [json|reset]",
        help: "dump this process's metrics registry (or reset it)",
        run: run_stats,
    },
    Command {
        name: ".trace",
        usage: ".trace [on|off]",
        help: "show or set whether the span tracer records",
        run: run_trace,
    },
    Command {
        name: ".mode",
        usage: ".mode [seq | par [n]]",
        help: "show or set the session's execution mode",
        run: run_mode,
    },
    Command {
        name: ".limits",
        usage: ".limits [show | mem=<bytes> | deadline=<ms> | iters=<n> | slots=<n> [queue=<n>] | off]",
        help: "show or set session resource limits (memory budget, deadline, iteration cap, admission slots)",
        run: run_limits,
    },
    Command {
        name: ".faults",
        usage: ".faults [list | on <site> <policy> | off <site> | seed <n> | reset]",
        help: "inspect or arm failpoints (policy: error|panic|corrupt@always|nth=N|prob=P)",
        run: |_, rest| run_faults(rest),
    },
    Command {
        name: ".backup",
        usage: ".backup <dir>",
        help: "take an online backup into dir (full the first time, then incrementals; embedded)",
        run: run_backup,
    },
    Command {
        name: ".restore",
        usage: ".restore <dir> [--to-offset <wal-off> | --latest]",
        help: "replace the embedded engine with a point-in-time restore from dir",
        run: run_restore,
    },
    Command {
        name: ".scrub",
        usage: ".scrub [dir]",
        help: "verify archived backups and live pages, repairing corrupt pages (embedded)",
        run: run_scrub,
    },
    Command {
        name: ".help",
        usage: ".help",
        help: "show this command table",
        run: |_, _| Ok(help_text()),
    },
    Command {
        name: ".quit",
        usage: ".quit (or .exit)",
        help: "leave the shell",
        run: |_, _| Ok("bye".to_string()),
    },
];

fn help_text() -> String {
    let width = COMMANDS.iter().map(|c| c.usage.len()).max().unwrap_or(0);
    let mut s = String::from("commands:\n");
    for c in COMMANDS {
        s.push_str(&format!("  {:width$}  {}\n", c.usage, c.help));
    }
    s.push_str(
        "anything else is parsed as SQL-ish \
         (create table / insert into / select / begin / commit / rollback)",
    );
    s
}

fn main() {
    let mut shell = Shell::new();
    let stdin = io::stdin();
    let mut out = io::stdout();
    print!("bq> ");
    let _ = out.flush();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if !line.is_empty() {
            if line == ".quit" || line == ".exit" {
                break;
            }
            match execute(&mut shell, line) {
                Ok(msg) => println!("{msg}"),
                Err(e) => println!("error: {e}"),
            }
        }
        print!("bq> ");
        let _ = out.flush();
    }
    println!();
}

fn execute(shell: &mut Shell, line: &str) -> Result<String, String> {
    if line.starts_with('.') {
        let token = line.split_whitespace().next().unwrap_or(line);
        let name = if token == ".exit" { ".quit" } else { token };
        let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
            return Err(format!("unknown command `{token}` (try .help)"));
        };
        return (cmd.run)(shell, line[token.len()..].trim());
    }
    shell
        .driver()
        .execute(line)
        .map(render_outcome)
        .map_err(|e| e.to_string())
}

fn render_outcome(out: Outcome) -> String {
    match out {
        Outcome::Rows(rel) => {
            let mut s = format!("{}", rel.schema());
            for t in rel.iter() {
                s.push_str(&format!("\n  {t}"));
            }
            s.push_str(&format!("\n({} rows)", rel.len()));
            s
        }
        Outcome::Message(m) => m,
    }
}

/// `.connect host:port`
fn run_connect(sh: &mut Shell, rest: &str) -> Result<String, String> {
    if rest.is_empty() {
        return Err("usage: .connect <host:port>".to_string());
    }
    if sh.remote.is_some() {
        return Err("already connected; .disconnect first".to_string());
    }
    let conn = bq_server::connect(rest).map_err(|e| e.to_string())?;
    let session = conn.session();
    sh.remote = Some(conn);
    Ok(format!("connected to {rest} (session {session})"))
}

/// `.mode` | `.mode seq` | `.mode par [n]`
fn run_mode(sh: &mut Shell, rest: &str) -> Result<String, String> {
    if rest.is_empty() {
        return Ok(match sh.driver().mode() {
            Some(mode) => format!("mode: {mode}"),
            None if sh.remote.is_some() => "mode: server default".to_string(),
            None => format!(
                "mode: {} (engine default)",
                sh.embedded.with_db(|db| db.exec_mode())
            ),
        });
    }
    let mut it = rest.split_whitespace();
    let mode = match it.next() {
        Some("seq") | Some("sequential") => ExecMode::Sequential,
        Some("par") | Some("parallel") => {
            let workers = match it.next() {
                Some(n) => n
                    .parse::<usize>()
                    .map_err(|_| format!("bad worker count `{n}`"))?,
                None => bq_exec::engine::default_parallelism(),
            };
            if workers == 0 {
                return Err("worker count must be positive".into());
            }
            ExecMode::Parallel(workers)
        }
        _ => return Err("expected `.mode seq` or `.mode par [n]`".into()),
    };
    sh.driver().set_mode(mode).map_err(|e| e.to_string())?;
    Ok(format!("mode: {mode}"))
}

/// `.stats` | `.stats json` | `.stats reset`
///
/// The metrics registry is process-global, so this works (and reports
/// local numbers) whether or not a remote connection is up.
fn run_stats(sh: &mut Shell, rest: &str) -> Result<String, String> {
    match rest {
        "" => Ok(sh.embedded.with_db(|db| db.metrics_text())),
        "json" => Ok(sh.embedded.with_db(|db| db.metrics_json())),
        "reset" => {
            sh.embedded.with_db(|db| db.reset_metrics());
            Ok("metrics reset".to_string())
        }
        other => Err(format!("expected `.stats [json|reset]`, got `{other}`")),
    }
}

/// `.trace` | `.trace on` | `.trace off`
fn run_trace(sh: &mut Shell, rest: &str) -> Result<String, String> {
    match rest {
        "on" => {
            sh.embedded.with_db(|db| db.set_tracing(true));
            Ok("tracing on".to_string())
        }
        "off" => {
            sh.embedded.with_db(|db| db.set_tracing(false));
            Ok("tracing off".to_string())
        }
        "" => Ok(format!(
            "tracing {}",
            if sh.embedded.with_db(|db| db.tracing()) {
                "on"
            } else {
                "off"
            }
        )),
        other => Err(format!("expected `.trace [on|off]`, got `{other}`")),
    }
}

/// `.limits [show | mem=<bytes> | deadline=<ms> | iters=<n> | slots=<n> [queue=<n>] | off]`
///
/// Keys compose in one call (`.limits mem=1048576 deadline=500`); `off`
/// clears every limit. `slots`/`queue` configure the embedded admission
/// controller; a server's admission is fixed when it starts, so those keys
/// refuse while connected.
fn run_limits(sh: &mut Shell, rest: &str) -> Result<String, String> {
    fn render(sh: &mut Shell) -> String {
        let l = sh.driver().limits();
        let mem = l
            .memory_bytes
            .map_or("unlimited".to_string(), |b| format!("{b} B"));
        let deadline = l
            .deadline_ms
            .map_or("none".to_string(), |ms| format!("{ms} ms"));
        let iters = l
            .max_iterations
            .map_or("none".to_string(), |n| n.to_string());
        let slots = if sh.remote.is_some() {
            "server-side (fixed at server start)".to_string()
        } else {
            let (slots, queue) = sh.embedded.with_db(|db| db.admission_limits());
            if slots == usize::MAX {
                "unbounded".to_string()
            } else {
                format!("{slots} (queue {queue})")
            }
        };
        format!("mem: {mem}\ndeadline: {deadline}\niters: {iters}\nslots: {slots}")
    }
    if rest.is_empty() || rest == "show" {
        return Ok(render(sh));
    }
    if rest == "off" {
        sh.driver()
            .set_limits(bq_core::SessionLimits::default())
            .map_err(|e| e.to_string())?;
        if sh.remote.is_none() {
            sh.embedded.with_db(|db| db.set_admission(usize::MAX, 0));
        }
        return Ok(render(sh));
    }
    let mut limits = sh.driver().limits();
    let mut slots: Option<usize> = None;
    let mut queue: Option<usize> = None;
    for token in rest.split_whitespace() {
        let (key, val) = token
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got `{token}` (see .help)"))?;
        let parse = |v: &str| v.parse::<u64>().map_err(|_| format!("bad number `{v}`"));
        match key {
            "mem" => limits.memory_bytes = Some(parse(val)?),
            "deadline" => limits.deadline_ms = Some(parse(val)?),
            "iters" => limits.max_iterations = Some(parse(val)?),
            "slots" => slots = Some(parse(val)? as usize),
            "queue" => queue = Some(parse(val)? as usize),
            other => return Err(format!("unknown limit `{other}` (see .help)")),
        }
    }
    if queue.is_some() && slots.is_none() {
        return Err("queue=<n> requires slots=<n>".to_string());
    }
    if slots.is_some() && sh.remote.is_some() {
        return Err("slots/queue are embedded-only (server admission is fixed at start)".into());
    }
    sh.driver().set_limits(limits).map_err(|e| e.to_string())?;
    if let Some(s) = slots {
        if s == 0 {
            return Err("slots must be positive".to_string());
        }
        sh.embedded
            .with_db(|db| db.set_admission(s, queue.unwrap_or(0)));
    }
    Ok(render(sh))
}

/// `.faults [list | on <site> <policy> | off <site> | seed <n> | reset]`
///
/// Arms sites globally: a shell session wants faults to hit the worker
/// pool, not just the REPL thread.
fn run_faults(rest: &str) -> Result<String, String> {
    let mut it = rest.split_whitespace();
    match it.next() {
        None | Some("list") => {
            let armed = bq_faults::list();
            let mut s = String::from("site                     armed  hits  fires  simulates\n");
            for (site, desc) in bq_faults::CATALOG {
                let row = armed.iter().find(|i| i.site == *site);
                s.push_str(&format!(
                    "{site:24} {:6} {:5} {:6}  {desc}\n",
                    row.map_or("-".to_string(), |i| i.policy.clone()),
                    row.map_or(0, |i| i.hits),
                    row.map_or(0, |i| i.fires),
                ));
            }
            // Ad-hoc sites armed outside the catalog still show up.
            for i in armed
                .iter()
                .filter(|i| !bq_faults::CATALOG.iter().any(|(site, _)| *site == i.site))
            {
                s.push_str(&format!(
                    "{:24} {:6} {:5} {:6}  (not in catalog)\n",
                    i.site, i.policy, i.hits, i.fires
                ));
            }
            Ok(s.trim_end().to_string())
        }
        Some("on") => {
            let site = it.next().ok_or("usage: .faults on <site> <policy>")?;
            if !bq_faults::CATALOG.iter().any(|(s, _)| *s == site) {
                return Err(format!("unknown site `{site}` (see .faults list)"));
            }
            let policy = bq_faults::parse_policy(
                it.next()
                    .ok_or("usage: .faults on <site> <action>@<trigger>, e.g. `corrupt@nth=3`")?,
            )?;
            bq_faults::configure(site, policy);
            Ok(format!("armed {site} with {policy}"))
        }
        Some("off") => {
            let site = it.next().ok_or("usage: .faults off <site>")?;
            bq_faults::off(site);
            Ok(format!("disarmed {site}"))
        }
        Some("seed") => {
            let n = it.next().ok_or("usage: .faults seed <n>")?;
            let seed = n.parse::<u64>().map_err(|_| format!("bad seed `{n}`"))?;
            bq_faults::set_seed(seed);
            Ok(format!("fault seed set to {seed}"))
        }
        Some("reset") => {
            bq_faults::reset();
            Ok("all failpoints disarmed".to_string())
        }
        Some(other) => Err(format!(
            "expected `.faults [list|on|off|seed|reset]`, got `{other}`"
        )),
    }
}

/// `.slow [n]` — the tail of the slow-query log, newest last. Plain SQL
/// over `bq.slow_log`; the `[n]` cap is applied client-side since the
/// relation is a set ordered by query id, not a stream.
fn run_slow(sh: &mut Shell, rest: &str) -> Result<String, String> {
    let n = if rest.is_empty() {
        10
    } else {
        rest.trim()
            .parse::<usize>()
            .map_err(|_| format!("bad entry count `{rest}`"))?
    };
    let out = sh
        .driver()
        .execute(
            "select s.query, s.session, s.elapsed_us, s.rows, s.fingerprint, s.sql \
             from bq.slow_log s",
        )
        .map_err(|e| e.to_string())?;
    let Outcome::Rows(rel) = out else {
        return Err("expected rows from bq.slow_log".to_string());
    };
    let tuples = rel.tuples();
    let total = tuples.len();
    let skip = total.saturating_sub(n);
    let mut s = format!("{}", rel.schema());
    for t in tuples.iter().skip(skip) {
        s.push_str(&format!("\n  {t}"));
    }
    s.push_str(&format!("\n({} of {total} entries)", total - skip));
    Ok(s)
}

/// `.profile <sql>`
fn run_profile(sh: &mut Shell, rest: &str) -> Result<String, String> {
    sh.require_embedded(".profile")?;
    if rest.is_empty() {
        return Err("usage: .profile <sql>".to_string());
    }
    let (rel, profile) = sh
        .embedded
        .with_session(|db, ctx, mode| db.profile_sql(rest, ctx, mode))
        .map_err(|e| e.to_string())?;
    Ok(format!("{}({} rows)", profile.render(), rel.len()))
}

/// Get (or open) the backup engine for `dir`, reusing the attachment
/// when the directory matches the current one.
fn attach_backup(sh: &mut Shell, dir: &str) -> Result<Arc<BackupEngine>, String> {
    if let Some((d, engine)) = &sh.backup {
        if d == dir {
            return Ok(engine.clone());
        }
    }
    let archive = DirArchive::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    let registry = sh.embedded.with_db(|db| db.backup_registry());
    let engine = Arc::new(BackupEngine::new(Arc::new(archive), registry));
    sh.backup = Some((dir.to_string(), engine.clone()));
    Ok(engine)
}

/// `.backup <dir>` (dir optional once attached)
fn run_backup(sh: &mut Shell, rest: &str) -> Result<String, String> {
    sh.require_embedded(".backup")?;
    let dir = if rest.is_empty() {
        match &sh.backup {
            Some((d, _)) => d.clone(),
            None => return Err("usage: .backup <dir>".to_string()),
        }
    } else {
        rest.trim().to_string()
    };
    let engine = attach_backup(sh, &dir)?;
    let db = sh.embedded.db();
    let m = engine.backup_incremental(&db).map_err(|e| e.to_string())?;
    Ok(format!(
        "{} backup #{} covers wal [{}, {}) ({} bytes) -> {dir}",
        m.kind.as_str(),
        m.seq,
        m.wal_start,
        m.wal_end,
        m.object_len
    ))
}

/// `.restore <dir> [--to-offset <wal-off> | --latest]`
fn run_restore(sh: &mut Shell, rest: &str) -> Result<String, String> {
    sh.require_embedded(".restore")?;
    let usage = "usage: .restore <dir> [--to-offset <wal-off> | --latest]";
    let mut it = rest.split_whitespace();
    let dir = it.next().ok_or(usage)?;
    let engine = attach_backup(sh, dir)?;
    let (restored, offset) = match it.next() {
        None | Some("--latest") => engine.restore_latest().map_err(|e| e.to_string())?,
        Some("--to-offset") => {
            let n = it.next().ok_or("--to-offset requires a WAL offset")?;
            let offset = n
                .parse::<u64>()
                .map_err(|_| format!("bad WAL offset `{n}`"))?;
            let db = engine
                .restore_to_offset(offset)
                .map_err(|e| e.to_string())?;
            (db, offset)
        }
        Some(other) => return Err(format!("unknown flag `{other}`; {usage}")),
    };
    let fingerprint = restored.content_fingerprint();
    let db = sh.embedded.db();
    *db.write().unwrap_or_else(|e| e.into_inner()) = restored;
    // The restored engine has a fresh backup registry; drop the
    // attachment so the next `.backup` rebinds to it.
    sh.backup = None;
    Ok(format!(
        "restored to wal offset {offset} (fingerprint {fingerprint:016x})"
    ))
}

/// `.scrub [dir]` — archive + live pages when a dir is given or
/// attached, live pages only otherwise.
fn run_scrub(sh: &mut Shell, rest: &str) -> Result<String, String> {
    sh.require_embedded(".scrub")?;
    let dir = if rest.is_empty() {
        sh.backup.as_ref().map(|(d, _)| d.clone())
    } else {
        Some(rest.trim().to_string())
    };
    let report = match dir {
        Some(dir) => {
            let engine = attach_backup(sh, &dir)?;
            let db = sh.embedded.db();
            engine.scrub(Some(&db)).map_err(|e| e.to_string())?
        }
        None => {
            let (pages_checked, pages_restored) = sh
                .embedded
                .with_db(|db| db.scrub_pages())
                .map_err(|e| e.to_string())?;
            bq_backup::ScrubReport {
                pages_checked,
                pages_restored,
                ..Default::default()
            }
        }
    };
    let mut s = format!(
        "scrub: {} manifests ({} bad), {} objects ({} bad), {} pages ({} restored)",
        report.manifests_checked,
        report.manifests_bad,
        report.objects_checked,
        report.objects_bad,
        report.pages_checked,
        report.pages_restored
    );
    for name in &report.bad {
        s.push_str(&format!("\n  bad: {name}"));
    }
    Ok(s)
}

/// `.datalog <rules> ? <query-atom>`
fn run_datalog(sh: &mut Shell, rest: &str) -> Result<String, String> {
    sh.require_embedded(".datalog")?;
    let (program, query) = rest
        .rsplit_once('?')
        .ok_or("expected `.datalog <rules> ? <query>`")?;
    let answers = sh
        .embedded
        .with_session(|db, ctx, _| db.datalog_with_ctx(program.trim(), query.trim(), ctx))
        .map_err(|e| e.to_string())?;
    let mut s = String::new();
    for a in &answers {
        let row: Vec<String> = a.iter().map(ToString::to_string).collect();
        s.push_str(&format!("  ({})\n", row.join(", ")));
    }
    s.push_str(&format!("({} answers)", answers.len()));
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Shell {
        let mut sh = Shell::new();
        execute(&mut sh, "create table emp (name str, dept str, sal int)").unwrap();
        execute(&mut sh, "insert into emp values ('ann', 'cs', 90)").unwrap();
        execute(&mut sh, "insert into emp values ('bob', 'ee', 70)").unwrap();
        sh
    }

    #[test]
    fn create_insert_select_pipeline() {
        let mut sh = fresh();
        let out = execute(&mut sh, "select e.name from emp e where e.sal > 80").unwrap();
        assert!(out.contains("ann"));
        assert!(out.contains("(1 rows)"));
    }

    #[test]
    fn tables_listing() {
        let mut sh = fresh();
        assert_eq!(execute(&mut sh, ".tables").unwrap(), "emp");
    }

    #[test]
    fn transactions_from_the_shell() {
        let mut sh = fresh();
        execute(&mut sh, "begin").unwrap();
        execute(&mut sh, "insert into emp values ('cat', 'cs', 80)").unwrap();
        execute(&mut sh, "rollback").unwrap();
        let out = execute(&mut sh, "select e.name from emp e").unwrap();
        assert!(out.contains("(2 rows)"), "{out}");

        execute(&mut sh, "begin").unwrap();
        execute(&mut sh, "insert into emp values ('cat', 'cs', 80)").unwrap();
        execute(&mut sh, "commit").unwrap();
        let out = execute(&mut sh, "select e.name from emp e").unwrap();
        assert!(out.contains("(3 rows)"), "{out}");

        assert!(execute(&mut sh, "commit").is_err());
    }

    #[test]
    fn prepared_statements_from_the_shell() {
        let mut sh = fresh();
        let out = execute(&mut sh, ".prepare select e.name from emp e").unwrap();
        assert_eq!(out, "prepared statement 0");
        let out = execute(&mut sh, ".exec 0").unwrap();
        assert!(out.contains("(2 rows)"), "{out}");
        assert!(execute(&mut sh, ".exec 99").is_err());
        assert!(execute(&mut sh, ".exec x").is_err());
        assert!(execute(&mut sh, ".prepare insert into emp values (1)").is_err());
    }

    #[test]
    fn datalog_command() {
        let mut sh = fresh();
        let out = execute(
            &mut sh,
            ".datalog peer(X, Y) :- emp(X, D, S1), emp(Y, D, S2), X != Y. ? peer(X, Y)",
        )
        .unwrap();
        assert!(out.contains("(0 answers)"), "no same-dept pairs: {out}");
    }

    #[test]
    fn quoted_commas_survive_insert() {
        let mut sh = Shell::new();
        execute(&mut sh, "create table t (a str, b int)").unwrap();
        execute(&mut sh, "insert into t values ('x, y', 3)").unwrap();
        let out = execute(&mut sh, "select t.a from t where t.b = 3").unwrap();
        assert!(out.contains("x, y"));
    }

    #[test]
    fn explain_shows_the_plan_tree() {
        let mut sh = fresh();
        let out = execute(
            &mut sh,
            ".analyze select e.name from emp e where e.sal > 80",
        )
        .unwrap();
        assert!(out.starts_with("mode:"), "{out}");
        assert!(out.contains("SeqScan [emp] where e.sal > 80"), "{out}");
        assert!(out.contains("rows="), "{out}");
    }

    #[test]
    fn mode_switching() {
        let mut sh = fresh();
        let engine_mode = sh.embedded.with_db(|db| db.exec_mode());
        assert_eq!(
            execute(&mut sh, ".mode").unwrap(),
            format!("mode: {engine_mode} (engine default)")
        );
        assert_eq!(execute(&mut sh, ".mode seq").unwrap(), "mode: sequential");
        assert_eq!(execute(&mut sh, ".mode").unwrap(), "mode: sequential");
        assert_eq!(
            execute(&mut sh, ".mode par 2").unwrap(),
            "mode: parallel(2)"
        );
        assert!(execute(&mut sh, ".mode par x").is_err());
        assert!(execute(&mut sh, ".mode par 0").is_err());
        assert!(execute(&mut sh, ".mode warp").is_err());
        // Queries still answer after switching, in the session's mode; the
        // engine's default is left as it was.
        let out = execute(&mut sh, "select e.name from emp e where e.sal > 80").unwrap();
        assert!(out.contains("ann"));
        let out = execute(&mut sh, ".analyze select e.name from emp e").unwrap();
        assert!(out.starts_with("mode: parallel(2)"), "{out}");
        assert_eq!(sh.embedded.with_db(|db| db.exec_mode()), engine_mode);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut sh = fresh();
        assert!(execute(&mut sh, "select nope").is_err());
        assert!(execute(&mut sh, "create table emp (a int)").is_err());
        assert!(execute(&mut sh, "insert into emp values ('only-one')").is_err());
        assert!(execute(&mut sh, "gibberish").is_err());
        assert!(execute(&mut sh, ".bogus").is_err());
    }

    /// Regression for the satellite requirement: the dispatcher and `.help`
    /// share one table, so every dispatched command must appear in `.help`
    /// and be reachable through `execute`.
    #[test]
    fn every_dispatched_command_appears_in_help() {
        let mut sh = fresh();
        let help = execute(&mut sh, ".help").unwrap();
        for cmd in COMMANDS {
            assert!(
                help.contains(cmd.name),
                "`{}` missing from .help:\n{help}",
                cmd.name
            );
            assert!(
                help.contains(cmd.usage),
                "usage for `{}` missing from .help:\n{help}",
                cmd.name
            );
            // The command is actually dispatchable by its listed name
            // (argument-less invocation; a usage error is still dispatch).
            let dispatched = execute(&mut sh, cmd.name);
            assert!(
                dispatched != Err(format!("unknown command `{}` (try .help)", cmd.name)),
                "`{}` listed in .help but not dispatched",
                cmd.name
            );
        }
        // The `.exit` alias reaches `.quit`.
        assert_eq!(execute(&mut sh, ".exit").unwrap(), "bye");
    }

    #[test]
    fn faults_command_lists_arms_and_disarms() {
        let mut sh = fresh();
        let list = execute(&mut sh, ".faults").unwrap();
        for (site, _) in bq_faults::CATALOG {
            assert!(list.contains(site), "`{site}` missing from .faults list");
        }
        assert!(execute(&mut sh, ".faults on wal.append.torn corrupt@nth=3")
            .unwrap()
            .contains("armed wal.append.torn"));
        let listed = execute(&mut sh, ".faults list").unwrap();
        assert!(listed.contains("corrupt@nth=3"), "{listed}");
        assert!(execute(&mut sh, ".faults on bogus.site error@always").is_err());
        assert!(execute(&mut sh, ".faults on wal.sync.skip nonsense").is_err());
        assert!(execute(&mut sh, ".faults seed 7").unwrap().contains('7'));
        assert!(execute(&mut sh, ".faults seed x").is_err());
        assert!(execute(&mut sh, ".faults off wal.append.torn")
            .unwrap()
            .contains("disarmed"));
        assert_eq!(
            execute(&mut sh, ".faults reset").unwrap(),
            "all failpoints disarmed"
        );
        assert!(execute(&mut sh, ".faults frobnicate").is_err());
    }

    #[test]
    fn limits_command_sets_and_clears_session_defaults() {
        let mut sh = fresh();
        let shown = execute(&mut sh, ".limits").unwrap();
        assert!(shown.contains("mem: unlimited"), "{shown}");
        assert!(shown.contains("slots: unbounded"), "{shown}");

        let set = execute(&mut sh, ".limits mem=1048576 deadline=5000 iters=100").unwrap();
        assert!(set.contains("mem: 1048576 B"), "{set}");
        assert!(set.contains("deadline: 5000 ms"), "{set}");
        assert!(set.contains("iters: 100"), "{set}");
        // Generous limits leave ordinary queries untouched.
        let out = execute(&mut sh, "select e.name from emp e where e.sal > 80").unwrap();
        assert!(out.contains("ann"));

        // A starvation budget stops the same query with a typed message.
        execute(&mut sh, ".limits mem=16").unwrap();
        let err = execute(&mut sh, "select e.name from emp e").unwrap_err();
        assert!(err.contains("memory budget exceeded"), "{err}");
        // So do the commands that reach into the engine: they run as the
        // shell's session, not under the engine's own limits.
        let err = execute(&mut sh, ".profile select e.name from emp e").unwrap_err();
        assert!(err.contains("memory budget exceeded"), "{err}");
        let err = execute(&mut sh, ".datalog rich(X) :- emp(X, D, S). ? rich(X)").unwrap_err();
        assert!(err.contains("memory budget exceeded"), "{err}");

        let slots = execute(&mut sh, ".limits slots=2 queue=4").unwrap();
        assert!(slots.contains("slots: 2 (queue 4)"), "{slots}");

        let off = execute(&mut sh, ".limits off").unwrap();
        assert!(off.contains("mem: unlimited"), "{off}");
        assert!(off.contains("slots: unbounded"), "{off}");
        assert!(execute(&mut sh, "select e.name from emp e").is_ok());

        assert!(execute(&mut sh, ".limits queue=4").is_err());
        assert!(execute(&mut sh, ".limits slots=0").is_err());
        assert!(execute(&mut sh, ".limits mem=lots").is_err());
        assert!(execute(&mut sh, ".limits frobnicate").is_err());
    }

    #[test]
    fn stats_trace_and_profile_commands() {
        let mut sh = fresh();
        execute(&mut sh, "select e.name from emp e").unwrap();
        let stats = execute(&mut sh, ".stats").unwrap();
        assert!(stats.contains("bq_exec_operators_total"), "{stats}");
        let json = execute(&mut sh, ".stats json").unwrap();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(execute(&mut sh, ".stats bogus").is_err());

        assert_eq!(execute(&mut sh, ".trace on").unwrap(), "tracing on");
        assert_eq!(execute(&mut sh, ".trace").unwrap(), "tracing on");
        assert_eq!(execute(&mut sh, ".trace off").unwrap(), "tracing off");
        assert!(execute(&mut sh, ".trace sideways").is_err());

        let profile = execute(&mut sh, ".profile select e.name from emp e").unwrap();
        assert!(profile.contains("-- profile:"), "{profile}");
        assert!(profile.contains("SeqScan [emp]"), "{profile}");
        assert!(profile.contains("(2 rows)"), "{profile}");
        assert!(execute(&mut sh, ".profile").is_err());
    }

    #[test]
    fn introspection_commands_answer_via_the_catalog() {
        let mut sh = fresh();
        // `.queries` is plain SQL over bq.queries and sees itself running.
        let queries = execute(&mut sh, ".queries").unwrap();
        assert!(queries.contains("bq.queries"), "{queries}");
        assert!(queries.contains("(1 rows)"), "{queries}");

        // `.analyze` renders per-operator runtime stats for the plan.
        let analyzed = execute(&mut sh, ".analyze select e.name from emp e").unwrap();
        assert!(analyzed.contains("SeqScan [emp]"), "{analyzed}");
        assert!(analyzed.contains("time="), "{analyzed}");
        assert!(analyzed.contains("mem="), "{analyzed}");
        assert!(execute(&mut sh, ".analyze").is_err());
        assert!(execute(&mut sh, ".analyze insert into emp values (1)").is_err());

        // Everything above (and `fresh`) landed in the slow log; `.slow 2`
        // shows only the newest two.
        let slow = execute(&mut sh, ".slow 2").unwrap();
        assert!(slow.contains("(2 of "), "{slow}");
        assert!(
            slow.contains("bq.queries"),
            "the .queries select was logged: {slow}"
        );
        assert!(execute(&mut sh, ".slow x").is_err());
    }

    /// Pinned regression: the backup surface must stay in the single
    /// COMMANDS table (and therefore in `.help`).
    #[test]
    fn backup_restore_scrub_commands_pinned_in_help() {
        let mut sh = fresh();
        let help = execute(&mut sh, ".help").unwrap();
        for pinned in [".backup", ".restore", ".scrub"] {
            assert!(
                COMMANDS.iter().any(|c| c.name == pinned),
                "`{pinned}` missing from COMMANDS"
            );
            assert!(
                help.contains(pinned),
                "`{pinned}` missing from .help:\n{help}"
            );
        }
    }

    #[test]
    fn backup_restore_scrub_from_the_shell() {
        let dir = std::env::temp_dir().join(format!("bqsh-backup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().to_string();
        let mut sh = fresh();
        assert!(execute(&mut sh, ".backup").is_err(), "no dir attached yet");

        let first = execute(&mut sh, &format!(".backup {dir_s}")).unwrap();
        assert!(first.contains("full backup #1"), "{first}");
        // The full's horizon, parsed back out of the transcript.
        let full_offset: u64 = first
            .split('[')
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("offset in backup output");

        execute(&mut sh, "insert into emp values ('cat', 'cs', 80)").unwrap();
        let second = execute(&mut sh, ".backup").unwrap();
        assert!(second.contains("incremental backup #2"), "{second}");
        let scrub = execute(&mut sh, ".scrub").unwrap();
        assert!(scrub.contains("2 objects (0 bad)"), "{scrub}");

        // A write after the last backup is lost by design on restore.
        execute(&mut sh, "insert into emp values ('doomed', 'xx', 1)").unwrap();
        let restored = execute(&mut sh, &format!(".restore {dir_s} --latest")).unwrap();
        assert!(restored.contains("restored to wal offset"), "{restored}");
        let rows = execute(&mut sh, "select e.name from emp e").unwrap();
        assert!(rows.contains("(3 rows)"), "{rows}");
        assert!(rows.contains("cat") && !rows.contains("doomed"), "{rows}");

        // Point-in-time: back to the moment of the full backup.
        let pitr = execute(
            &mut sh,
            &format!(".restore {dir_s} --to-offset {full_offset}"),
        )
        .unwrap();
        assert!(pitr.contains(&format!("offset {full_offset}")), "{pitr}");
        let rows = execute(&mut sh, "select e.name from emp e").unwrap();
        assert!(rows.contains("(2 rows)"), "{rows}");
        assert!(!rows.contains("cat"), "{rows}");

        // An offset inside a record is refused, not half-applied.
        assert!(execute(&mut sh, &format!(".restore {dir_s} --to-offset 1")).is_err());
        assert!(execute(&mut sh, &format!(".restore {dir_s} --sideways")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The shell behaves identically over the wire: `.connect` flips the
    /// driver, statements travel to a real server, `.disconnect` flips back.
    #[test]
    fn remote_backend_via_connect() {
        use bq_server::{serve, ServerConfig};
        use std::sync::{Arc, RwLock};

        let server = serve(
            Arc::new(RwLock::new(bq_core::Db::new())),
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        let mut sh = Shell::new();
        assert!(execute(&mut sh, ".connect").is_err());
        let hello = execute(&mut sh, &format!(".connect {addr}")).unwrap();
        assert!(hello.contains("connected"), "{hello}");
        assert!(execute(&mut sh, &format!(".connect {addr}")).is_err());

        execute(&mut sh, "create table t (a int)").unwrap();
        execute(&mut sh, "insert into t values (1)").unwrap();
        let out = execute(&mut sh, "select t.a from t").unwrap();
        assert!(out.contains("(1 rows)"), "{out}");
        // `.queries` is a select over `bq.queries`; like any honest
        // process list it sees (at least) itself running.
        let queries = execute(&mut sh, ".queries").unwrap();
        assert!(queries.contains("bq.queries"), "{queries}");
        assert!(execute(&mut sh, ".kill 12345")
            .unwrap()
            .contains("no running"));

        // Engine-reaching commands refuse while connected.
        assert!(execute(&mut sh, ".tables")
            .unwrap_err()
            .contains("embedded-only"));
        // EXPLAIN ANALYZE is a statement: it travels the wire like one.
        let analyzed = execute(&mut sh, ".analyze select t.a from t").unwrap();
        assert!(analyzed.contains("SeqScan [t]"), "{analyzed}");
        assert!(execute(&mut sh, ".mode")
            .unwrap()
            .contains("server default"));
        assert!(execute(&mut sh, ".limits slots=2").is_err());

        execute(&mut sh, ".disconnect").unwrap();
        assert!(execute(&mut sh, ".disconnect").is_err());
        // Back on the embedded engine, which never saw the remote table.
        assert_eq!(execute(&mut sh, ".tables").unwrap(), "");

        server.shutdown(std::time::Duration::from_secs(2));
    }
}
