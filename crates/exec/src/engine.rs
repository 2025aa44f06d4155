//! The morsel-driven executor.
//!
//! Every operator consumes and produces a [`Run`]: a schema plus a list of
//! row batches ("morsels"). Parallel operators spawn a scoped worker pool
//! (`std::thread::scope`) that pulls batch indices off a shared atomic
//! cursor — workers never block each other except to merge results, so a
//! slow morsel only delays its own worker.
//!
//! A row in flight is a [`Row`]: borrowed from the base relation until an
//! operator (a projection, a join, a product) builds a new one. Operators
//! that only choose rows pass them on as they are, and the root set build
//! — the one place duplicates are guaranteed to leave — hands the distinct
//! rows on still borrowed, as a [`RowSet`]. Its consumer decides whether
//! to copy them ([`RowSet::into_relation`]) or only to read them.

use crate::plan::{lower, PhysPlan, SetOpKind};
use crate::pred::BoundPred;
use crate::stats::ExecStats;
use bq_governor::{Charger, QueryContext};
use bq_relational::algebra::expr::Expr;
use bq_relational::catalog::Database;
use bq_relational::error::RelError;
use bq_relational::{Relation, Result, Schema, Tuple, Value};
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default number of tuples per morsel.
pub const DEFAULT_MORSEL_SIZE: usize = 1024;

/// How the executor schedules operator work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded: every operator runs on the calling thread.
    Sequential,
    /// Morsel-parallel with the given worker count (clamped to ≥ 1).
    Parallel(usize),
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ExecMode::Sequential => write!(f, "sequential"),
            ExecMode::Parallel(n) => write!(f, "parallel({})", n.max(1)),
        }
    }
}

/// A sensible worker count for this machine: the available hardware
/// parallelism, capped so the scoped pools stay cheap to spin up. Worked
/// out once per process: `available_parallelism` reads cgroup files on
/// every call, and every operator of a parallel plan asks.
pub fn default_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    })
}

/// The batch-at-a-time physical executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    mode: ExecMode,
    morsel_size: usize,
}

/// A row in flight: borrowed from a base relation of the `'db` catalog
/// until an operator builds a new one.
pub type Row<'db> = Cow<'db, Tuple>;

/// What a scan charges the memory budget per match: the row's slot in a
/// batch, not a copy of the row.
const ROW_SLOT_BYTES: u64 = std::mem::size_of::<Row<'static>>() as u64;

/// The label of the root [`ExecStats`] node: the set build every plan
/// ends in.
pub const SET_BUILD: &str = "SetBuild";

/// A plan's result as the set build leaves it: sorted, each row once, and
/// still borrowing every row no operator built. A consumer copies it
/// ([`RowSet::into_relation`]) or reads it where it lies.
#[derive(Debug, Clone)]
pub struct RowSet<'db> {
    /// Column names and types.
    pub schema: Schema,
    /// The rows, in `Tuple` order, without duplicates.
    pub rows: Vec<Row<'db>>,
}

impl RowSet<'_> {
    /// Copy the rows into an owned relation. Each borrowed row is charged
    /// to `ctx`'s budget before anything is copied, and `stats` — the set
    /// build's node — gains the bytes and the time.
    pub fn into_relation(self, ctx: &QueryContext, stats: &mut ExecStats) -> Result<Relation> {
        let t0 = Instant::now();
        stats.mem_bytes += charge_copies(&self.rows, ctx)?;
        let tuples = self.rows.into_iter().map(Cow::into_owned);
        let rel = Relation::from_tuples(self.schema, tuples)?;
        stats.elapsed += t0.elapsed();
        Ok(rel)
    }

    /// The same rows, each owned, for a result that must outlive the
    /// catalog it was read from; charged like [`RowSet::into_relation`].
    pub fn into_owned(self, ctx: &QueryContext, stats: &mut ExecStats) -> Result<RowSet<'static>> {
        let t0 = Instant::now();
        stats.mem_bytes += charge_copies(&self.rows, ctx)?;
        let rows = self.rows.into_iter().map(|r| Cow::Owned(r.into_owned()));
        let owned = RowSet {
            schema: self.schema,
            rows: rows.collect(),
        };
        stats.elapsed += t0.elapsed();
        Ok(owned)
    }
}

/// Charge `ctx`'s budget for a copy of each borrowed row, and return the
/// bytes charged.
fn charge_copies(rows: &[Row<'_>], ctx: &QueryContext) -> Result<u64> {
    let mut charger = Charger::new(ctx);
    if charger.is_enabled() {
        for row in rows {
            if let Cow::Borrowed(t) = row {
                charger.charge(t.approx_bytes())?;
            }
        }
        charger.flush()?;
    }
    Ok(charger.total())
}

/// Intermediate result flowing between operators: a schema and its morsels.
struct Run<'db> {
    schema: Schema,
    batches: Vec<Vec<Row<'db>>>,
}

impl Run<'_> {
    fn rows(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }
}

/// One batch of rows an operator builds, each charged to the memory
/// budget as it is pushed.
struct Built<'c, 'db> {
    charger: Charger<'c>,
    rows: Vec<Row<'db>>,
}

impl<'c, 'db> Built<'c, 'db> {
    fn new(ctx: &'c QueryContext, capacity: usize) -> Self {
        Built {
            charger: Charger::new(ctx),
            rows: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, row: Tuple) -> Result<()> {
        if self.charger.is_enabled() {
            self.charger.charge(row.approx_bytes())?;
        }
        self.rows.push(Cow::Owned(row));
        Ok(())
    }

    /// Flush the charges and add them to `mem`, the operator's tally.
    fn finish(mut self, mem: &AtomicU64) -> Result<Vec<Row<'db>>> {
        self.charger.flush()?;
        // relaxed: per-batch byte tally for stats only.
        mem.fetch_add(self.charger.total(), Ordering::Relaxed);
        Ok(self.rows)
    }
}

impl Executor {
    /// Build an executor with the given mode and the default morsel size.
    pub fn new(mode: ExecMode) -> Executor {
        Executor {
            mode,
            morsel_size: DEFAULT_MORSEL_SIZE,
        }
    }

    /// Override the morsel size (tuples per batch). Mostly for tests, which
    /// use tiny morsels to force multi-batch execution on small data.
    pub fn with_morsel_size(mut self, size: usize) -> Executor {
        assert!(size > 0, "morsel size must be positive");
        self.morsel_size = size;
        self
    }

    /// Current execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Effective pool size: the requested worker count, capped near the
    /// hardware parallelism — oversubscribing a CPU-bound pool only adds
    /// scheduling overhead. The floor of 2 keeps the concurrent path (and
    /// its tests) live even on single-core machines.
    fn workers(&self) -> usize {
        match self.mode {
            ExecMode::Sequential => 1,
            ExecMode::Parallel(n) => n.max(1).min(default_parallelism().max(2)),
        }
    }

    /// Lower `expr` and execute it against `db` (ungoverned: an unlimited
    /// context whose checks cost one relaxed atomic load).
    pub fn execute(&self, expr: &Expr, db: &Database) -> Result<Relation> {
        let plan = lower(expr, db)?;
        Ok(self
            .execute_plan_with_stats_ctx(&plan, db, &QueryContext::unlimited())?
            .0)
    }

    /// Execute an already-lowered plan under a governor context, with
    /// statistics: deadline and cancellation are checked at every operator
    /// and every morsel boundary, and materializing operators charge the
    /// context's memory budget before they grow. The result is the plan's
    /// rows as the set build leaves them, still borrowed from `db`; the
    /// root of the statistics is the [`SET_BUILD`] node.
    pub fn execute_plan_rows<'db>(
        &self,
        plan: &PhysPlan,
        db: &'db Database,
        ctx: &QueryContext,
    ) -> Result<(RowSet<'db>, ExecStats)> {
        let _span = bq_obs::span!("exec.plan", mode = self.mode, root = plan.label());
        let (run, stats) = self.exec(plan, db, ctx)?;
        let t0 = Instant::now();
        let rows_in = run.rows();
        let set = build_set(run);
        let rows_out = set.rows.len() as u64;
        let stats = record(ExecStats {
            op: SET_BUILD.to_string(),
            rows_in,
            rows_out,
            batches_out: u64::from(rows_out > 0),
            elapsed: t0.elapsed(),
            build: None,
            probe: None,
            mem_bytes: 0,
            children: vec![stats],
        });
        Ok((set, stats))
    }

    /// [`Executor::execute_plan_rows`], with the rows copied into an owned
    /// relation ([`RowSet::into_relation`]).
    pub fn execute_plan_with_stats_ctx(
        &self,
        plan: &PhysPlan,
        db: &Database,
        ctx: &QueryContext,
    ) -> Result<(Relation, ExecStats)> {
        let (set, mut stats) = self.execute_plan_rows(plan, db, ctx)?;
        let rel = set.into_relation(ctx, &mut stats)?;
        Ok((rel, stats))
    }

    fn exec<'db>(
        &self,
        plan: &PhysPlan,
        db: &'db Database,
        ctx: &QueryContext,
    ) -> Result<(Run<'db>, ExecStats)> {
        ctx.check()?;
        let w = self.workers();
        match plan {
            PhysPlan::SeqScan {
                rel,
                schema,
                pred,
                seek,
            } => {
                let t0 = Instant::now();
                let relation = db.get(rel)?;
                let (batches, examined, mem) = match seek {
                    Some(seek) => {
                        let run = relation.iter_from(&seek.start);
                        self.scan(run.take_while(|t| seek.covers(t)), pred.as_ref(), ctx)?
                    }
                    None => self.scan(relation.iter(), pred.as_ref(), ctx)?,
                };
                let run = Run {
                    schema: schema.clone(),
                    batches,
                };
                let stats = self.stats_for(plan, examined, &run, t0, mem, vec![]);
                Ok((run, stats))
            }
            PhysPlan::Filter { pred, input } => {
                let (child, cstats) = self.exec(input, db, ctx)?;
                let t0 = Instant::now();
                let rows_in = child.rows();
                let keep = par_index_map(w, child.batches.len(), ctx, |i| {
                    child.batches[i].iter().map(|t| pred.eval(t)).collect()
                })?;
                let run = Run {
                    schema: child.schema,
                    batches: retain(child.batches, keep),
                };
                let stats = self.stats_for(plan, rows_in, &run, t0, 0, vec![cstats]);
                Ok((run, stats))
            }
            PhysPlan::Project {
                indices,
                schema,
                input,
                ..
            } => {
                let (child, cstats) = self.exec(input, db, ctx)?;
                let t0 = Instant::now();
                let out_mem = AtomicU64::new(0);
                let batches = par_index_map(w, child.batches.len(), ctx, |i| {
                    let batch = &child.batches[i];
                    let mut out = Built::new(ctx, batch.len());
                    for t in batch {
                        out.push(t.project(indices))?;
                    }
                    out.finish(&out_mem)
                })?;
                let run = Run {
                    schema: schema.clone(),
                    batches,
                };
                let mem = out_mem.into_inner();
                let stats = self.stats_for(plan, child.rows(), &run, t0, mem, vec![cstats]);
                Ok((run, stats))
            }
            PhysPlan::Reschema { schema, input } => {
                let (child, cstats) = self.exec(input, db, ctx)?;
                let t0 = Instant::now();
                let run = Run {
                    schema: schema.clone(),
                    batches: child.batches,
                };
                let stats = self.stats_for(plan, run.rows(), &run, t0, 0, vec![cstats]);
                Ok((run, stats))
            }
            PhysPlan::HashDistinct { input } => {
                let (child, cstats) = self.exec(input, db, ctx)?;
                let t0 = Instant::now();
                let rows_in = child.rows();
                let parts = partition_count(w, rows_in);
                // Build side: charged inside par_partition.
                let (buckets, mem) = par_partition(w, parts, &child.batches, None, ctx)?;
                let batches = par_index_map(w, parts, ctx, |p| {
                    let mut seen: HashSet<&Tuple> = HashSet::with_capacity(buckets[p].len());
                    let mut out = Vec::new();
                    for &row in &buckets[p] {
                        if seen.insert(row) {
                            // A borrowed row stays borrowed: the clone
                            // copies the reference.
                            out.push(row.clone());
                        }
                    }
                    Ok(out)
                })?;
                let run = Run {
                    schema: child.schema.clone(),
                    batches: drop_empty(batches),
                };
                let stats = self.stats_for(plan, rows_in, &run, t0, mem, vec![cstats]);
                Ok((run, stats))
            }
            PhysPlan::PartitionedHashJoin {
                l_key,
                r_key,
                r_rest,
                schema,
                left,
                right,
                ..
            } => {
                let (lrun, lstats) = self.exec(left, db, ctx)?;
                let (rrun, rstats) = self.exec(right, db, ctx)?;
                let t0 = Instant::now();
                let rows_in = lrun.rows() + rrun.rows();
                let parts = partition_count(w, lrun.rows().max(rrun.rows()));
                // The hash tables go on the smaller input. Which side that
                // is changes which tuples are hashed and which are looked
                // up, never the output: a joined tuple is always left
                // columns, then `r_rest` of the right.
                let build_left = lrun.rows() < rrun.rows();
                let (brun, b_key, prun, p_key) = if build_left {
                    (&lrun, l_key, &rrun, r_key)
                } else {
                    (&rrun, r_key, &lrun, l_key)
                };

                // Build phase: partition the build input on its key and
                // hash each partition. The build side is charged against
                // the memory budget inside par_partition.
                let tb = Instant::now();
                let (bparts, build_mem) = par_partition(w, parts, &brun.batches, Some(b_key), ctx)?;
                let tables: Vec<HashMap<JoinKey<'_>, Vec<&Tuple>>> =
                    par_index_map(w, parts, ctx, |p| {
                        let mut table: HashMap<JoinKey<'_>, Vec<&Tuple>> =
                            HashMap::with_capacity(bparts[p].len());
                        for &row in &bparts[p] {
                            let tuple: &Tuple = row;
                            let key = JoinKey { tuple, cols: b_key };
                            table.entry(key).or_default().push(tuple);
                        }
                        Ok(table)
                    })?;
                let build = tb.elapsed();

                // Probe phase: partition the other input the same way, then
                // probe each partition against its table. Output can fan out
                // on skewed keys, so it is charged too.
                let tp = Instant::now();
                let (pparts, probe_mem) = par_partition(w, parts, &prun.batches, Some(p_key), ctx)?;
                let out_mem = AtomicU64::new(0);
                let batches = par_index_map(w, parts, ctx, |p| {
                    let mut out = Built::new(ctx, 0);
                    for &row in &pparts[p] {
                        let tuple: &Tuple = row;
                        let Some(matches) = tables[p].get(&JoinKey { tuple, cols: p_key }) else {
                            continue;
                        };
                        for &other in matches {
                            let (lt, rt) = if build_left {
                                (other, tuple)
                            } else {
                                (tuple, other)
                            };
                            let right_cols = r_rest.iter().map(|&i| rt.get(i));
                            out.push(Tuple::new(
                                lt.values().iter().chain(right_cols).cloned().collect(),
                            ))?;
                        }
                    }
                    out.finish(&out_mem)
                })?;
                let probe = tp.elapsed();

                let run = Run {
                    schema: schema.clone(),
                    batches: drop_empty(batches),
                };
                let mem = build_mem + probe_mem + out_mem.into_inner();
                let mut stats = self.stats_for(plan, rows_in, &run, t0, mem, vec![lstats, rstats]);
                stats.build = Some(build);
                stats.probe = Some(probe);
                Ok((run, stats))
            }
            PhysPlan::Product {
                schema,
                left,
                right,
            } => {
                let (lrun, lstats) = self.exec(left, db, ctx)?;
                let (rrun, rstats) = self.exec(right, db, ctx)?;
                let t0 = Instant::now();
                let rows_in = lrun.rows() + rrun.rows();
                let rall: Vec<&Tuple> = rrun.batches.iter().flatten().map(|r| &**r).collect();
                // Quadratic output: every produced tuple is charged so a
                // runaway cross product dies at the budget, not the
                // allocator.
                let out_mem = AtomicU64::new(0);
                let batches = par_index_map(w, lrun.batches.len(), ctx, |i| {
                    let batch = &lrun.batches[i];
                    let mut out = Built::new(ctx, batch.len() * rall.len());
                    for lt in batch {
                        ctx.check()?;
                        for rt in &rall {
                            out.push(lt.concat(rt))?;
                        }
                    }
                    out.finish(&out_mem)
                })?;
                let run = Run {
                    schema: schema.clone(),
                    batches: drop_empty(batches),
                };
                let mem = out_mem.into_inner();
                let stats = self.stats_for(plan, rows_in, &run, t0, mem, vec![lstats, rstats]);
                Ok((run, stats))
            }
            PhysPlan::Union { left, right } => {
                let (lrun, lstats) = self.exec(left, db, ctx)?;
                let (rrun, rstats) = self.exec(right, db, ctx)?;
                let t0 = Instant::now();
                let rows_in = lrun.rows() + rrun.rows();
                let mut batches = lrun.batches;
                batches.extend(rrun.batches);
                // Keep the left schema: union compatibility is positional on
                // types, so right tuples conform.
                let run = Run {
                    schema: lrun.schema,
                    batches,
                };
                let stats = self.stats_for(plan, rows_in, &run, t0, 0, vec![lstats, rstats]);
                Ok((run, stats))
            }
            PhysPlan::HashSetOp { op, left, right } => {
                let (lrun, lstats) = self.exec(left, db, ctx)?;
                let (rrun, rstats) = self.exec(right, db, ctx)?;
                let t0 = Instant::now();
                let rows_in = lrun.rows() + rrun.rows();
                // Only the right input is held, as one membership set per
                // partition; each left row is looked up where it lies and
                // kept or dropped in place.
                let parts = partition_count(w, rrun.rows());
                let (rparts, mem) = par_partition(w, parts, &rrun.batches, None, ctx)?;
                let members: Vec<HashSet<&Tuple>> = par_index_map(w, parts, ctx, |p| {
                    Ok(rparts[p].iter().map(|&r| &**r).collect())
                })?;
                let keep_present = *op == SetOpKind::Intersection;
                let keep = par_index_map(w, lrun.batches.len(), ctx, |i| {
                    let batch = lrun.batches[i].iter();
                    Ok(batch
                        .map(|t| members[bucket(t, None, parts)].contains(&**t) == keep_present)
                        .collect())
                })?;
                let run = Run {
                    schema: lrun.schema,
                    batches: retain(lrun.batches, keep),
                };
                let stats = self.stats_for(plan, rows_in, &run, t0, mem, vec![lstats, rstats]);
                Ok((run, stats))
            }
        }
    }

    /// The scan's single pass: walk `tuples` by reference, gather the ones
    /// `pred` accepts into morsel-sized batches of borrowed rows, and
    /// return the batches, the number of tuples examined and the bytes
    /// charged. The context is checked once per morsel examined, and the
    /// memory budget is charged one row slot per match: nothing is copied.
    fn scan<'db>(
        &self,
        tuples: impl Iterator<Item = &'db Tuple>,
        pred: Option<&BoundPred>,
        ctx: &QueryContext,
    ) -> Result<(Vec<Vec<Row<'db>>>, u64, u64)> {
        let mut charger = Charger::new(ctx);
        let mut batches = Vec::new();
        let mut batch = Vec::new();
        let mut examined = 0usize;
        for t in tuples {
            if examined > 0 && examined.is_multiple_of(self.morsel_size) {
                ctx.check()?;
            }
            examined += 1;
            if let Some(pred) = pred {
                if !pred.eval(t)? {
                    continue;
                }
            }
            charger.charge(ROW_SLOT_BYTES)?;
            batch.push(Cow::Borrowed(t));
            if batch.len() == self.morsel_size {
                batches.push(std::mem::take(&mut batch));
            }
        }
        if !batch.is_empty() {
            batches.push(batch);
        }
        charger.flush()?;
        Ok((batches, examined as u64, charger.total()))
    }

    fn stats_for(
        &self,
        plan: &PhysPlan,
        rows_in: u64,
        run: &Run<'_>,
        started: Instant,
        mem_bytes: u64,
        children: Vec<ExecStats>,
    ) -> ExecStats {
        record(ExecStats {
            op: plan.label(),
            rows_in,
            rows_out: run.rows(),
            batches_out: run.batches.len() as u64,
            elapsed: started.elapsed(),
            build: None,
            probe: None,
            mem_bytes,
            children,
        })
    }
}

/// Count an operator's output in the global registry.
fn record(stats: ExecStats) -> ExecStats {
    bq_obs::counter!("bq_exec_operators_total", "physical operators executed").inc();
    bq_obs::counter!("bq_exec_rows_total", "rows produced by physical operators")
        .add(stats.rows_out);
    bq_obs::counter!(
        "bq_exec_batches_total",
        "batches produced by physical operators"
    )
    .add(stats.batches_out);
    stats
}

/// The root set build: the one place a plan's duplicates are guaranteed
/// to leave. The rows are sorted and deduplicated by reference, so
/// nothing is copied here.
fn build_set(run: Run<'_>) -> RowSet<'_> {
    let mut rows: Vec<Row<'_>> = run.batches.into_iter().flatten().collect();
    // Stable: a run of rows already in order (a scan's, or each side of a
    // union) is merged, not re-sorted.
    rows.sort();
    rows.dedup();
    RowSet {
        schema: run.schema,
        rows,
    }
}

fn drop_empty<'db>(batches: Vec<Vec<Row<'db>>>) -> Vec<Vec<Row<'db>>> {
    batches.into_iter().filter(|b| !b.is_empty()).collect()
}

/// Keep each row whose `keep` flag is set, moving it: nothing is copied.
fn retain<'db>(batches: Vec<Vec<Row<'db>>>, keep: Vec<Vec<bool>>) -> Vec<Vec<Row<'db>>> {
    let kept = batches.into_iter().zip(keep).map(|(mut batch, keep)| {
        let mut keep = keep.into_iter();
        batch.retain(|_| keep.next() == Some(true));
        batch
    });
    drop_empty(kept.collect())
}

/// How many hash partitions to use: one per worker, but never more than the
/// row count (so tiny inputs don't fan out into empty partitions).
fn partition_count(workers: usize, rows: u64) -> usize {
    workers.clamp(1, (rows.max(1)) as usize)
}

/// The partition of `parts` that `t` falls in: by the hash of its `key`
/// columns, or of the whole tuple when there is no key (distinct, set
/// operations). Equal keys always land in the same partition.
fn bucket(t: &Tuple, key: Option<&[usize]>, parts: usize) -> usize {
    if parts == 1 {
        return 0;
    }
    let mut h = DefaultHasher::new();
    match key {
        Some(cols) => JoinKey { tuple: t, cols }.hash(&mut h),
        None => t.hash(&mut h),
    }
    (h.finish() % parts as u64) as usize
}

/// Compute `f(0..n)` with a worker pool pulling indices off a shared atomic
/// cursor, returning results in index order. The governor context is
/// checked once per index on both paths.
fn par_index_map<T, F>(workers: usize, n: usize, ctx: &QueryContext, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n)
            .map(|i| {
                ctx.check()?;
                f(i)
            })
            .collect();
    }
    par_pull(workers, n, ctx, f)
}

/// Failpoint `exec.morsel.panic`: a worker panics mid-morsel. The panic is
/// caught at the morsel boundary ([`std::panic::catch_unwind`]); the pool
/// drains, the partial output is discarded, and the whole operator re-runs
/// sequentially on the calling thread — graceful degradation instead of a
/// poisoned scope tearing down the query.
fn par_pull<T, F>(workers: usize, n: usize, ctx: &QueryContext, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    bq_obs::histogram!(
        "bq_exec_morsel_queue_depth",
        "morsels queued per parallel operator",
        bq_obs::SIZE_BUCKETS
    )
    .observe(n as u64);
    let cursor = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    let out: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let first_err: Mutex<Option<RelError>> = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| {
                let mut busy = std::time::Duration::ZERO;
                loop {
                    // relaxed: advisory stop flag — a stale read costs at
                    // most one extra morsel; the scope join synchronises.
                    if panicked.load(Ordering::Relaxed)
                        || first_err
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .is_some()
                    {
                        break;
                    }
                    // Governance check at every morsel boundary: a
                    // cancelled or expired context stops the whole pool
                    // within one morsel's worth of work.
                    if let Err(g) = ctx.check() {
                        first_err
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .get_or_insert(RelError::from(g));
                        break;
                    }
                    // relaxed: the cursor only hands out unique indices;
                    // results are published via the out mutex, not the
                    // counter.
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let t0 = Instant::now();
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        bq_faults::fail_point!("exec.morsel.panic");
                        f(i)
                    }));
                    busy += t0.elapsed();
                    match result {
                        Ok(Ok(v)) => out.lock().unwrap_or_else(|e| e.into_inner()).push((i, v)),
                        Ok(Err(e)) => {
                            first_err
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .get_or_insert(e);
                            break;
                        }
                        Err(_payload) => {
                            // relaxed: see the stop-flag load above; the
                            // authoritative read is into_inner() after join.
                            panicked.store(true, Ordering::Relaxed);
                            bq_obs::counter!(
                                "bq_exec_worker_panics_total",
                                "worker panics caught at morsel boundaries"
                            )
                            .inc();
                            break;
                        }
                    }
                }
                bq_obs::histogram!(
                    "bq_exec_worker_busy_us",
                    "per-worker busy time per parallel operator (us)",
                    bq_obs::LATENCY_BUCKETS_US
                )
                .observe(busy.as_micros() as u64);
            });
        }
    });
    if panicked.into_inner() {
        // Discard the partial parallel output and degrade to a sequential
        // re-run. The failpoint is not re-armed here: a one-shot (nth=k)
        // injection stays caught, while a genuinely deterministic panic in
        // `f` will surface on the calling thread, with its real backtrace.
        bq_obs::counter!(
            "bq_exec_seq_fallbacks_total",
            "parallel operators re-run sequentially after a worker panic"
        )
        .inc();
        return (0..n)
            .map(|i| {
                ctx.check()?;
                f(i)
            })
            .collect();
    }
    if let Some(e) = first_err.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }
    let mut pairs = out.into_inner().unwrap_or_else(|e| e.into_inner());
    pairs.sort_unstable_by_key(|(i, _)| *i);
    Ok(pairs.into_iter().map(|(_, v)| v).collect())
}

/// The key columns of one tuple, hashed and compared in place: the join
/// keys both sides of a hash join meet on, without a copy per tuple.
/// Equality is [`Value`]'s, i.e. `CmpOp::Eq`'s: `total_cmp == Equal`.
#[derive(Clone, Copy)]
struct JoinKey<'a> {
    tuple: &'a Tuple,
    cols: &'a [usize],
}

impl<'a> JoinKey<'a> {
    fn values(&self) -> impl Iterator<Item = &'a Value> {
        let (tuple, cols) = (self.tuple, self.cols);
        cols.iter().map(move |&i| tuple.get(i))
    }
}

impl PartialEq for JoinKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.values().eq(other.values())
    }
}

impl Eq for JoinKey<'_> {}

impl Hash for JoinKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().for_each(|v| v.hash(state));
    }
}

/// Hash-partition all rows into `parts` buckets of references, in
/// parallel over the input batches, by [`bucket`]: `key` selects the
/// hashed positions, `None` hashes the whole tuple (distinct / set ops),
/// so each bucket can then be processed independently.
///
/// This is where an operator takes hold of a whole input at once — the
/// buckets, and the hash tables built over them, pin every batch of it —
/// so each tuple is charged against `ctx`'s memory budget at its full
/// size, and the context is checked at every morsel boundary. Returns the
/// buckets plus the bytes charged (zero without a budget), so operators
/// can attribute them in their stats.
fn par_partition<'a, 'db>(
    workers: usize,
    parts: usize,
    batches: &'a [Vec<Row<'db>>],
    key: Option<&[usize]>,
    ctx: &QueryContext,
) -> Result<(Vec<Vec<&'a Row<'db>>>, u64)> {
    if workers <= 1 || batches.len() <= 1 {
        let mut charger = Charger::new(ctx);
        let mut buckets = vec![Vec::new(); parts];
        for batch in batches {
            ctx.check()?;
            for t in batch {
                if charger.is_enabled() {
                    charger.charge(t.approx_bytes())?;
                }
                buckets[bucket(t, key, parts)].push(t);
            }
        }
        charger.flush()?;
        return Ok((buckets, charger.total()));
    }
    // Each batch partitions into its own buckets under its own charger;
    // merging in batch order makes the buckets the sequential run's.
    let per_batch = par_pull(workers, batches.len(), ctx, |i| {
        let mut charger = Charger::new(ctx);
        let mut local = vec![Vec::new(); parts];
        for t in &batches[i] {
            if charger.is_enabled() {
                charger.charge(t.approx_bytes())?;
            }
            local[bucket(t, key, parts)].push(t);
        }
        charger.flush()?;
        Ok((local, charger.total()))
    })?;
    let mut buckets = vec![Vec::new(); parts];
    let mut charged = 0;
    for (local, bytes) in per_batch {
        charged += bytes;
        for (bucket, tuples) in buckets.iter_mut().zip(local) {
            bucket.extend(tuples);
        }
    }
    Ok((buckets, charged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_relational::algebra::eval::eval;
    use bq_relational::algebra::expr::Predicate;
    use bq_relational::tup;
    use bq_relational::value::Type;

    fn emp_db(n: i64) -> Database {
        let mut db = Database::new();
        let mut emp =
            Relation::with_schema(&[("id", Type::Int), ("dept", Type::Int), ("sal", Type::Int)])
                .unwrap();
        for i in 0..n {
            emp.insert(tup![i, i % 10, 50 + i % 60]).unwrap();
        }
        db.add("emp", emp);
        let mut dept = Relation::with_schema(&[("dept", Type::Int), ("bldg", Type::Int)]).unwrap();
        for d in 0..10i64 {
            dept.insert(tup![d, d % 3]).unwrap();
        }
        db.add("dept", dept);
        db
    }

    fn modes() -> Vec<Executor> {
        vec![
            Executor::new(ExecMode::Sequential).with_morsel_size(7),
            Executor::new(ExecMode::Parallel(1)).with_morsel_size(7),
            Executor::new(ExecMode::Parallel(4)).with_morsel_size(7),
        ]
    }

    /// Lower and execute with statistics, as `Db::run` does.
    fn run(
        ex: &Executor,
        expr: &Expr,
        db: &Database,
        ctx: &QueryContext,
    ) -> Result<(Relation, ExecStats)> {
        ex.execute_plan_with_stats_ctx(&lower(expr, db)?, db, ctx)
    }

    fn check(expr: &Expr, db: &Database) {
        let expected = eval(expr, db).unwrap();
        for ex in modes() {
            let got = ex.execute(expr, db).unwrap();
            assert_eq!(got, expected, "mode {:?} on {expr}", ex.mode());
        }
    }

    #[test]
    fn injected_worker_panic_degrades_to_sequential_run() {
        let site = "exec.morsel.panic";
        let db = emp_db(200);
        // The selection itself runs inline in the scan's pass; the
        // projection over its 20 matches is what reaches pool workers.
        let expr = Expr::rel("emp")
            .select(Predicate::eq_const("dept", 3i64))
            .project(&["id"]);
        let expected = eval(&expr, &db).unwrap();
        // Global scope: the panic must land on a pool worker thread, not
        // the configuring thread. Nth(1) fires exactly once, so the
        // sequential fallback runs clean; results stay correct either way.
        bq_faults::configure(
            site,
            bq_faults::Policy::new(bq_faults::Action::Panic, bq_faults::Trigger::Nth(1)),
        );
        let ex = Executor::new(ExecMode::Parallel(4)).with_morsel_size(7);
        let got = ex.execute(&expr, &db);
        let fires = bq_faults::fire_count(site);
        bq_faults::off(site);
        assert_eq!(got.unwrap(), expected, "fallback result matches oracle");
        assert_eq!(fires, 1, "the panic was injected");
    }

    #[test]
    fn scan_filter_project_match_oracle() {
        let db = emp_db(100);
        check(&Expr::rel("emp"), &db);
        check(
            &Expr::rel("emp").select(Predicate::eq_const("dept", 3i64)),
            &db,
        );
        check(&Expr::rel("emp").project(&["dept"]), &db);
    }

    #[test]
    fn point_select_examines_one_row_only_on_the_leading_column() {
        let db = emp_db(5000);
        for ex in modes() {
            for (attr, examined, matches) in [("id", 1, 1), ("dept", 5000, 500)] {
                let expr = Expr::rel("emp").select(Predicate::eq_const(attr, 7i64));
                let (rel, stats) = run(&ex, &expr, &db, &QueryContext::unlimited()).unwrap();
                assert_eq!(rel, eval(&expr, &db).unwrap());
                assert_eq!(stats.op, SET_BUILD);
                assert_eq!((stats.rows_in, stats.rows_out), (matches, matches));
                let scan = &stats.children[0];
                assert!(scan.op.starts_with("SeqScan [emp] where"), "{}", scan.op);
                assert_eq!(scan.op.contains(" seek "), attr == "id", "{}", scan.op);
                assert_eq!((scan.rows_in, scan.rows_out), (examined, matches));
            }
        }
    }

    #[test]
    fn scan_charges_the_matches_not_the_rows_examined() {
        let db = emp_db(100);
        let all = Expr::rel("emp");
        let some = Expr::rel("emp").select(Predicate::eq_const("dept", 3i64));
        let ex = Executor::new(ExecMode::Sequential).with_morsel_size(7);
        let charged = |expr: &Expr| {
            let ctx = QueryContext::unlimited().with_memory_budget(1 << 20);
            let (rel, stats) = run(&ex, expr, &db, &ctx).unwrap();
            assert_eq!(stats.total_mem_bytes(), ctx.budget().unwrap().used());
            // The scan charges a row slot per match; the copies are the
            // set build's, made once the duplicates are gone.
            let scan = &stats.children[0];
            assert_eq!(scan.mem_bytes, rel.len() as u64 * ROW_SLOT_BYTES);
            let copies: u64 = rel.iter().map(Tuple::approx_bytes).sum();
            assert_eq!((stats.op.as_str(), stats.mem_bytes), (SET_BUILD, copies));
            stats.total_mem_bytes()
        };
        assert_eq!(charged(&some) * 10, charged(&all), "10 of 100 rows copied");
        // A row reaching the set build twice is copied, and charged, once.
        let ctx = QueryContext::unlimited().with_memory_budget(1 << 20);
        let twice = all.clone().union(all.clone());
        let (_, stats) = run(&ex, &twice, &db, &ctx).unwrap();
        assert_eq!((stats.rows_in, stats.rows_out), (200, 100));
        assert_eq!(stats.total_mem_bytes(), ctx.budget().unwrap().used());
        assert_eq!(
            stats.total_mem_bytes(),
            charged(&all) + 100 * ROW_SLOT_BYTES,
            "200 slots, 100 copies"
        );
        // A budget smaller than the matches stops the pass; one that only
        // the whole table would exceed does not.
        let tight = |bytes: u64| QueryContext::unlimited().with_memory_budget(bytes);
        assert!(run(&ex, &all, &db, &tight(charged(&some))).is_err());
        assert!(run(&ex, &some, &db, &tight(charged(&some))).is_ok());
        // The scan of `select *` fits a budget one byte short of its
        // result, and the set build's copies do not.
        let err = run(&ex, &all, &db, &tight(charged(&all) - 1)).unwrap_err();
        assert!(
            matches!(
                err,
                RelError::Governed(bq_governor::GovernorError::MemoryExceeded { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn join_and_product_match_oracle() {
        let db = emp_db(100);
        check(&Expr::rel("emp").natural_join(Expr::rel("dept")), &db);
        check(
            &Expr::rel("emp")
                .qualify("e")
                .product(Expr::rel("dept").qualify("d")),
            &db,
        );
    }

    #[test]
    fn product_selections_join_on_exactly_what_the_equality_operator_accepts() {
        let mut db = Database::new();
        let mut l = Relation::with_schema(&[("a", Type::Int), ("b", Type::Str)]).unwrap();
        for i in 0..9i64 {
            l.insert(tup![i % 3, ["x", "y"][i as usize % 2]]).unwrap();
        }
        // Labelled nulls fit any column and equal themselves only.
        l.insert(Tuple::new(vec![Value::Null(1), Value::Null(2)]))
            .unwrap();
        db.add("l", l);
        let mut r = Relation::with_schema(&[("c", Type::Str), ("d", Type::Int)]).unwrap();
        r.insert(tup!["x", 0i64]).unwrap();
        r.insert(tup!["x", 1i64]).unwrap();
        r.insert(Tuple::new(vec![Value::Null(1), Value::Int(2)]))
            .unwrap();
        r.insert(Tuple::new(vec![Value::Null(2), Value::Null(1)]))
            .unwrap();
        db.add("r", r);
        let joined = |pred: Predicate, rows: usize| {
            // Both ways round: the hash table goes on the smaller input,
            // which is the right one here and the left one there.
            for e in [
                Expr::rel("l").product(Expr::rel("r")),
                Expr::rel("r").product(Expr::rel("l")),
            ] {
                let e = e.select(pred.clone());
                let plan = lower(&e, &db).unwrap().render();
                assert!(plan.contains("PartitionedHashJoin"), "{plan}");
                assert_eq!(eval(&e, &db).unwrap().len(), rows, "{e}");
                check(&e, &db);
            }
        };
        // Str keys, repeated on both sides: 3 × 'x' meet 2 × 'x', and the
        // null labelled 2 meets itself.
        joined(Predicate::eq_attrs("b", "c"), 7);
        // An int column against a str column: only equal labels agree.
        joined(Predicate::eq_attrs("a", "c"), 1);
        // Two keys at once, one of them written right to left.
        joined(
            Predicate::eq_attrs("c", "b").and(Predicate::eq_attrs("a", "d")),
            3,
        );
    }

    #[test]
    fn set_ops_match_oracle() {
        let db = emp_db(60);
        let evens = Expr::rel("emp").select(Predicate::eq_const("dept", 2i64));
        let low = Expr::rel("emp").select(Predicate::eq_const("sal", 52i64));
        check(&evens.clone().union(low.clone()), &db);
        check(&evens.clone().difference(low.clone()), &db);
        check(&evens.intersection(low), &db);
    }

    #[test]
    fn division_matches_oracle() {
        let mut db = Database::new();
        let mut takes =
            Relation::with_schema(&[("student", Type::Int), ("course", Type::Int)]).unwrap();
        for s in 0..20i64 {
            for c in 0..=(s % 4) {
                takes.insert(tup![s, c]).unwrap();
            }
        }
        db.add("takes", takes);
        let mut required = Relation::with_schema(&[("course", Type::Int)]).unwrap();
        required.insert(tup![0i64]).unwrap();
        required.insert(tup![1i64]).unwrap();
        db.add("required", required);
        check(&Expr::rel("takes").division(Expr::rel("required")), &db);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut db = Database::new();
        db.add("e", Relation::with_schema(&[("x", Type::Int)]).unwrap());
        check(&Expr::rel("e"), &db);
        check(&Expr::rel("e").select(Predicate::eq_const("x", 1i64)), &db);
        check(&Expr::rel("e").union(Expr::rel("e")), &db);
        check(&Expr::rel("e").difference(Expr::rel("e")), &db);
    }

    #[test]
    fn errors_propagate_from_workers() {
        let db = emp_db(50);
        // Predicate referencing a column that exists at lowering time but
        // not at eval time can't happen here, so force a runtime error via a
        // predicate over a dropped attribute after projection… which lowering
        // already rejects. Instead: unknown relation and unknown column both
        // error, matching the oracle.
        for ex in modes() {
            assert!(ex.execute(&Expr::rel("ghost"), &db).is_err());
            assert!(ex
                .execute(&Expr::rel("emp").project(&["ghost"]), &db)
                .is_err());
        }
    }

    #[test]
    fn stats_describe_the_plan() {
        let db = emp_db(100);
        let ex = Executor::new(ExecMode::Parallel(4)).with_morsel_size(16);
        let expr = Expr::rel("emp")
            .natural_join(Expr::rel("dept"))
            .select(Predicate::eq_const("bldg", 1i64))
            .project(&["dept"]);
        let (rel, stats) = run(&ex, &expr, &db, &QueryContext::unlimited()).unwrap();
        assert_eq!(rel, eval(&expr, &db).unwrap());
        // Root is the set build, where the projection's duplicates leave:
        // 30 employees in buildings 1 work in 3 departments.
        assert_eq!(stats.op, SET_BUILD);
        assert_eq!((stats.rows_in, stats.rows_out), (30, 3));
        assert_eq!(stats.rows_out, rel.len() as u64);
        assert_eq!(
            stats.operators(),
            6,
            "set build+project+filter+join+2 scans"
        );
        let project = &stats.children[0];
        assert_eq!(project.op, "Project [dept]");
        assert_eq!((project.rows_in, project.rows_out), (30, 30));
        let join = &project.children[0].children[0];
        assert!(join.op.starts_with("PartitionedHashJoin"), "{}", join.op);
        assert!(join.build.is_some() && join.probe.is_some());
        assert_eq!(join.rows_in, 110);
        assert_eq!(join.rows_out, 100);
        let rendered = stats.render();
        assert!(
            rendered.starts_with("SetBuild  (rows=3 in=30"),
            "{rendered}"
        );
        assert!(rendered.contains("SeqScan [emp]"), "{rendered}");
        assert!(!rendered.contains("HashDistinct"), "{rendered}");
    }

    #[test]
    fn budgeted_runs_attribute_memory_to_operators() {
        let db = emp_db(100);
        let expr = Expr::rel("emp")
            .natural_join(Expr::rel("dept"))
            .project(&["id"]);
        for ex in modes() {
            // No budget: sizes are never estimated, so mem stays zero.
            let (_, stats) = run(&ex, &expr, &db, &QueryContext::unlimited()).unwrap();
            assert_eq!(stats.total_mem_bytes(), 0, "ungoverned run charges nothing");

            let ctx = QueryContext::unlimited().with_memory_budget(64 * 1024 * 1024);
            let (_, stats) = run(&ex, &expr, &db, &ctx).unwrap();
            // The projection built every result row, so the set build at
            // the root has no borrowed row left to copy.
            assert_eq!((stats.op.as_str(), stats.mem_bytes), (SET_BUILD, 0));
            let project = &stats.children[0];
            assert!(project.mem_bytes > 0, "the projection charges its new rows");
            let join = &project.children[0];
            assert!(join.op.starts_with("PartitionedHashJoin"), "{}", join.op);
            assert!(join.mem_bytes > 0, "join charges build+probe copies");
            let scans = [&join.children[0], &join.children[1]];
            assert!(
                scans
                    .iter()
                    .all(|s| s.mem_bytes == s.rows_out * ROW_SLOT_BYTES),
                "scans charge a slot per match"
            );
            // Every charger in the executor reports into the stats tree, so
            // the tree total is exactly what the ledger saw reserved.
            assert_eq!(stats.total_mem_bytes(), ctx.budget().unwrap().used());
            assert!(stats.render().contains("mem="), "{}", stats.render());
        }
    }

    #[test]
    fn morsel_boundaries_do_not_change_results() {
        let db = emp_db(97);
        let expr = Expr::rel("emp").natural_join(Expr::rel("dept"));
        let expected = eval(&expr, &db).unwrap();
        for size in [1, 2, 13, 97, 1000] {
            let ex = Executor::new(ExecMode::Parallel(3)).with_morsel_size(size);
            assert_eq!(ex.execute(&expr, &db).unwrap(), expected, "morsel {size}");
        }
    }
}
