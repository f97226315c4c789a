//! Config-file loader for [`ScenarioSpec`]: scenarios as data, not code.
//!
//! A scenario file is JSON (`.json`) describing exactly the fields of
//! [`ScenarioSpec`]. The file is read by `limeqo_core::json`'s
//! line-tracking parser and decoded here through a single strict schema,
//! so every error names the file, the line, and the field path
//! (`scenarios/job-mini.json:14: policy.limeqo_als.rank: expected a
//! non-negative integer`). Unknown keys are errors — a typoed knob must
//! never be silently ignored.
//!
//! The checked-in files under `scenarios/` are the only definition of the
//! named registry: [`crate::scenario::registry`] and
//! [`crate::scenario::scale_registry`] compile them in and parse them here.
//!
//! The serializer ([`to_json_string`]) emits canonical files whose round
//! trip is *exact*: floats print through Rust's shortest-representation
//! formatter, which re-parses bit for bit, and [`ScenarioSpec::check`]
//! rejects seeds above 2^53 up front. The corpus test in
//! `tests/tests/scenario_corpus.rs` holds every registry file to that
//! canonical form, and the fuzzer dumps its minimized failures through
//! [`to_json_string`].

use std::path::{Path, PathBuf};

use crate::catalog::CatalogSpec;
use crate::query::{JoinShape, QueryClass};
use crate::scenario::{
    ArrivalModel, ArrivalSpec, DriftEvent, DriftKind, HintShape, ScenarioSpec, ScenarioWorkload,
    SyntheticSpec,
};
use crate::workloads::{ClassMix, WorkloadSpec};
use limeqo_core::json::{parse_located, Json, Located, Node};
use limeqo_core::scenario::PolicySpec;
use limeqo_core::store::DriftPolicy;

/// A scenario-file load failure: file, line (when known), and message.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadError {
    /// The file being loaded.
    pub path: PathBuf,
    /// 1-based line the error was detected on, when attributable.
    pub line: Option<usize>,
    /// What went wrong, prefixed with the offending field path.
    pub msg: String,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(line) => write!(f, "{}:{line}: {}", self.path.display(), self.msg),
            None => write!(f, "{}: {}", self.path.display(), self.msg),
        }
    }
}

impl std::error::Error for LoadError {}

// ---------------------------------------------------------------------------
// Decoder: Located -> ScenarioSpec, strict schema with path-qualified errors

struct Dec<'a> {
    file: &'a Path,
    /// Directory replay_csv paths resolve against; `None` when parsing
    /// from a string (replay_csv is then rejected).
    base_dir: Option<&'a Path>,
}

impl<'a> Dec<'a> {
    fn err(&self, line: usize, path: &str, msg: impl std::fmt::Display) -> LoadError {
        LoadError {
            path: self.file.to_path_buf(),
            line: Some(line),
            msg: if path.is_empty() { msg.to_string() } else { format!("{path}: {msg}") },
        }
    }

    fn obj<'v>(&self, v: &'v Located, path: &str) -> Result<&'v [(String, Located)], LoadError> {
        match &v.node {
            Node::Obj(fields) => Ok(fields),
            _ => Err(self.err(v.line, path, format!("expected an object, found {}", v.kind()))),
        }
    }

    fn arr<'v>(&self, v: &'v Located, path: &str) -> Result<&'v [Located], LoadError> {
        match &v.node {
            Node::Arr(items) => Ok(items),
            _ => Err(self.err(v.line, path, format!("expected an array, found {}", v.kind()))),
        }
    }

    fn str<'v>(&self, v: &'v Located, path: &str) -> Result<&'v str, LoadError> {
        match &v.node {
            Node::Str(s) => Ok(s),
            _ => Err(self.err(v.line, path, format!("expected a string, found {}", v.kind()))),
        }
    }

    fn f64(&self, v: &Located, path: &str) -> Result<f64, LoadError> {
        match v.node {
            Node::Num(n) => Ok(n),
            _ => Err(self.err(v.line, path, format!("expected a number, found {}", v.kind()))),
        }
    }

    fn bool(&self, v: &Located, path: &str) -> Result<bool, LoadError> {
        match v.node {
            Node::Bool(b) => Ok(b),
            _ => Err(self.err(v.line, path, format!("expected a boolean, found {}", v.kind()))),
        }
    }

    fn usize(&self, v: &Located, path: &str) -> Result<usize, LoadError> {
        let n = self.f64(v, path)?;
        if n.fract() != 0.0 || n < 0.0 || n > (1u64 << 53) as f64 {
            return Err(self.err(v.line, path, "expected a non-negative integer"));
        }
        Ok(n as usize)
    }

    fn u64(&self, v: &Located, path: &str) -> Result<u64, LoadError> {
        Ok(self.usize(v, path)? as u64)
    }

    fn pair_f64(&self, v: &Located, path: &str) -> Result<(f64, f64), LoadError> {
        let items = self.arr(v, path)?;
        if items.len() != 2 {
            return Err(self.err(v.line, path, "expected a 2-element array"));
        }
        Ok((self.f64(&items[0], path)?, self.f64(&items[1], path)?))
    }

    fn pair_usize(&self, v: &Located, path: &str) -> Result<(usize, usize), LoadError> {
        let items = self.arr(v, path)?;
        if items.len() != 2 {
            return Err(self.err(v.line, path, "expected a 2-element array"));
        }
        Ok((self.usize(&items[0], path)?, self.usize(&items[1], path)?))
    }

    fn get<'v>(&self, fields: &'v [(String, Located)], key: &str) -> Option<&'v Located> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn req<'v>(
        &self,
        owner: &Located,
        fields: &'v [(String, Located)],
        key: &str,
        path: &str,
    ) -> Result<&'v Located, LoadError> {
        self.get(fields, key)
            .ok_or_else(|| self.err(owner.line, path, format!("missing required key {key:?}")))
    }

    fn no_unknown(
        &self,
        fields: &[(String, Located)],
        allowed: &[&str],
        path: &str,
    ) -> Result<(), LoadError> {
        for (k, v) in fields {
            if !allowed.contains(&k.as_str()) {
                return Err(self.err(
                    v.line,
                    path,
                    format!("unknown key {k:?} (expected one of: {})", allowed.join(", ")),
                ));
            }
        }
        Ok(())
    }

    /// An object that must contain exactly one of `variants` — the encoding
    /// of every tagged enum in the schema.
    fn single_variant<'v>(
        &self,
        v: &'v Located,
        variants: &[&str],
        path: &str,
    ) -> Result<(&'v str, &'v Located), LoadError> {
        let fields = self.obj(v, path)?;
        self.no_unknown(fields, variants, path)?;
        if fields.len() != 1 {
            return Err(self.err(
                v.line,
                path,
                format!("expected exactly one of: {}", variants.join(", ")),
            ));
        }
        let (k, inner) = &fields[0];
        Ok((k.as_str(), inner))
    }

    fn spec(&self, v: &Located) -> Result<ScenarioSpec, LoadError> {
        let fields = self.obj(v, "")?;
        self.no_unknown(
            fields,
            &[
                "name",
                "summary",
                "workload",
                "hint_shape",
                "drift",
                "policy",
                "budget_multiple",
                "batch",
                "max_steps",
                "seeds",
                "arrivals",
                "shards",
                "probe_fail_rate",
                "probe_fail_seed",
            ],
            "",
        )?;
        let name = self.str(self.req(v, fields, "name", "")?, "name")?.to_string();
        let summary = self.str(self.req(v, fields, "summary", "")?, "summary")?.to_string();
        let workload = self.workload(self.req(v, fields, "workload", "")?)?;
        let hint_shape = match self.get(fields, "hint_shape") {
            None => HintShape::Full,
            Some(hv) => self.hint_shape(hv)?,
        };
        let drift = match self.get(fields, "drift") {
            None => Vec::new(),
            Some(dv) => self
                .arr(dv, "drift")?
                .iter()
                .map(|e| self.drift_event(e))
                .collect::<Result<_, _>>()?,
        };
        let policy = self.policy(self.req(v, fields, "policy", "")?)?;
        let budget_multiple = match self.get(fields, "budget_multiple") {
            None => 0.0,
            Some(bv) => self.f64(bv, "budget_multiple")?,
        };
        let batch = self.usize(self.req(v, fields, "batch", "")?, "batch")?;
        let max_steps = self.usize(self.req(v, fields, "max_steps", "")?, "max_steps")?;
        let seeds_v = self.req(v, fields, "seeds", "")?;
        let seeds = self
            .arr(seeds_v, "seeds")?
            .iter()
            .map(|s| self.u64(s, "seeds"))
            .collect::<Result<_, _>>()?;
        let arrivals = match self.get(fields, "arrivals") {
            None => None,
            Some(av) => Some(self.arrivals(av)?),
        };
        // Optional: absent means the unsharded layout (the only layout
        // that existed before the sharded tier), keeping old files valid.
        let shards = match self.get(fields, "shards") {
            None => 1,
            Some(sv) => self.usize(sv, "shards")?,
        };
        // Optional fault-injection knobs: absent means no injected probe
        // failures, the only behaviour that existed before the fault axis,
        // keeping old files valid (same policy as `shards`).
        let probe_fail_rate = match self.get(fields, "probe_fail_rate") {
            None => 0.0,
            Some(rv) => self.f64(rv, "probe_fail_rate")?,
        };
        let probe_fail_seed = match self.get(fields, "probe_fail_seed") {
            None => 0,
            Some(sv) => self.u64(sv, "probe_fail_seed")?,
        };
        Ok(ScenarioSpec {
            name,
            summary,
            workload,
            hint_shape,
            drift,
            policy,
            budget_multiple,
            batch,
            max_steps,
            seeds,
            arrivals,
            shards,
            probe_fail_rate,
            probe_fail_seed,
        })
    }

    fn workload(&self, v: &Located) -> Result<ScenarioWorkload, LoadError> {
        let (tag, inner) = self.single_variant(v, &["sim", "synthetic"], "workload")?;
        match tag {
            "sim" => Ok(ScenarioWorkload::Sim(self.workload_sim(inner)?)),
            _ => Ok(ScenarioWorkload::Synthetic(self.synthetic(inner)?)),
        }
    }

    fn workload_sim(&self, v: &Located) -> Result<WorkloadSpec, LoadError> {
        let p = "workload.sim";
        let fields = self.obj(v, p)?;
        self.no_unknown(
            fields,
            &[
                "name",
                "n_queries",
                "catalog",
                "class_mix",
                "target_default_total",
                "templates",
                "seed",
            ],
            p,
        )?;
        let templates = match self.get(fields, "templates") {
            None => None,
            Some(Located { node: Node::Null, .. }) => None,
            Some(tv) => Some(self.usize(tv, "workload.sim.templates")?),
        };
        Ok(WorkloadSpec {
            name: self.str(self.req(v, fields, "name", p)?, "workload.sim.name")?.to_string(),
            n_queries: self
                .usize(self.req(v, fields, "n_queries", p)?, "workload.sim.n_queries")?,
            catalog: self.catalog(self.req(v, fields, "catalog", p)?)?,
            class_mix: self
                .arr(self.req(v, fields, "class_mix", p)?, "workload.sim.class_mix")?
                .iter()
                .map(|c| self.class_mix(c))
                .collect::<Result<_, _>>()?,
            target_default_total: self.f64(
                self.req(v, fields, "target_default_total", p)?,
                "workload.sim.target_default_total",
            )?,
            templates,
            seed: self.u64(self.req(v, fields, "seed", p)?, "workload.sim.seed")?,
        })
    }

    fn catalog(&self, v: &Located) -> Result<CatalogSpec, LoadError> {
        let p = "workload.sim.catalog";
        let fields = self.obj(v, p)?;
        self.no_unknown(
            fields,
            &["name", "n_tables", "rows_range", "width_range", "index_prob", "fact_fraction"],
            p,
        )?;
        Ok(CatalogSpec {
            name: self.str(self.req(v, fields, "name", p)?, "workload.sim.catalog.name")?.into(),
            n_tables: self.usize(self.req(v, fields, "n_tables", p)?, "...catalog.n_tables")?,
            rows_range: self
                .pair_f64(self.req(v, fields, "rows_range", p)?, "...catalog.rows_range")?,
            width_range: self
                .pair_f64(self.req(v, fields, "width_range", p)?, "...catalog.width_range")?,
            index_prob: self.f64(self.req(v, fields, "index_prob", p)?, "...catalog.index_prob")?,
            fact_fraction: self
                .f64(self.req(v, fields, "fact_fraction", p)?, "...catalog.fact_fraction")?,
        })
    }

    fn class_mix(&self, v: &Located) -> Result<ClassMix, LoadError> {
        let p = "workload.sim.class_mix";
        let fields = self.obj(v, p)?;
        self.no_unknown(
            fields,
            &["class", "weight", "shape", "n_tables", "pred_sel_range", "fanout", "pred_prob"],
            p,
        )?;
        let class_v = self.req(v, fields, "class", p)?;
        let class = match self.str(class_v, "...class_mix.class")? {
            "nl-trap" => QueryClass::NestLoopTrap,
            "idx-trap" => QueryClass::IndexTrap,
            "missed-idx" => QueryClass::MissedIndex,
            "well-est" => QueryClass::WellEstimated,
            "etl" => QueryClass::Etl,
            other => {
                return Err(self.err(
                    class_v.line,
                    "...class_mix.class",
                    format!(
                        "unknown query class {other:?} \
                         (nl-trap, idx-trap, missed-idx, well-est, etl)"
                    ),
                ))
            }
        };
        let shape_v = self.req(v, fields, "shape", p)?;
        let shape = match self.str(shape_v, "...class_mix.shape")? {
            "chain" => JoinShape::Chain,
            "star" => JoinShape::Star,
            "snowflake" => JoinShape::Snowflake,
            other => {
                return Err(self.err(
                    shape_v.line,
                    "...class_mix.shape",
                    format!("unknown join shape {other:?} (chain, star, snowflake)"),
                ))
            }
        };
        Ok(ClassMix {
            class,
            weight: self.f64(self.req(v, fields, "weight", p)?, "...class_mix.weight")?,
            shape,
            n_tables: self
                .pair_usize(self.req(v, fields, "n_tables", p)?, "...class_mix.n_tables")?,
            pred_sel_range: self.pair_f64(
                self.req(v, fields, "pred_sel_range", p)?,
                "...class_mix.pred_sel_range",
            )?,
            fanout: self.pair_f64(self.req(v, fields, "fanout", p)?, "...class_mix.fanout")?,
            pred_prob: self.f64(self.req(v, fields, "pred_prob", p)?, "...class_mix.pred_prob")?,
        })
    }

    fn synthetic(&self, v: &Located) -> Result<SyntheticSpec, LoadError> {
        let p = "workload.synthetic";
        let fields = self.obj(v, p)?;
        self.no_unknown(
            fields,
            &["n", "k", "rank", "default_inflation", "noise_sigma", "seed"],
            p,
        )?;
        Ok(SyntheticSpec {
            n: self.usize(self.req(v, fields, "n", p)?, "workload.synthetic.n")?,
            k: self.usize(self.req(v, fields, "k", p)?, "workload.synthetic.k")?,
            rank: self.usize(self.req(v, fields, "rank", p)?, "workload.synthetic.rank")?,
            default_inflation: self.f64(
                self.req(v, fields, "default_inflation", p)?,
                "workload.synthetic.default_inflation",
            )?,
            noise_sigma: self
                .f64(self.req(v, fields, "noise_sigma", p)?, "workload.synthetic.noise_sigma")?,
            seed: self.u64(self.req(v, fields, "seed", p)?, "workload.synthetic.seed")?,
        })
    }

    fn hint_shape(&self, v: &Located) -> Result<HintShape, LoadError> {
        if let Node::Str(s) = &v.node {
            return match s.as_str() {
                "full" => Ok(HintShape::Full),
                other => Err(self.err(
                    v.line,
                    "hint_shape",
                    format!("unknown hint shape {other:?} (\"full\", or a prefix/strided object)"),
                )),
            };
        }
        let (tag, inner) = self.single_variant(v, &["prefix", "strided"], "hint_shape")?;
        match tag {
            "prefix" => Ok(HintShape::Prefix(self.usize(inner, "hint_shape.prefix")?)),
            _ => Ok(HintShape::Strided(self.usize(inner, "hint_shape.strided")?)),
        }
    }

    fn drift_event(&self, v: &Located) -> Result<DriftEvent, LoadError> {
        let p = "drift";
        let fields = self.obj(v, p)?;
        self.no_unknown(fields, &["at_frac", "kind"], p)?;
        let at_frac = self.f64(self.req(v, fields, "at_frac", p)?, "drift.at_frac")?;
        let kind_v = self.req(v, fields, "kind", p)?;
        let (tag, inner) =
            self.single_variant(kind_v, &["data_shift", "add_queries"], "drift.kind")?;
        let kind = match tag {
            "data_shift" => {
                let inner_fields = self.obj(inner, "drift.kind.data_shift")?;
                self.no_unknown(inner_fields, &["days"], "drift.kind.data_shift")?;
                DriftKind::DataShift {
                    days: self.f64(
                        self.req(inner, inner_fields, "days", "drift.kind.data_shift")?,
                        "drift.kind.data_shift.days",
                    )?,
                }
            }
            _ => {
                let inner_fields = self.obj(inner, "drift.kind.add_queries")?;
                self.no_unknown(inner_fields, &["count"], "drift.kind.add_queries")?;
                DriftKind::AddQueries {
                    count: self.usize(
                        self.req(inner, inner_fields, "count", "drift.kind.add_queries")?,
                        "drift.kind.add_queries.count",
                    )?,
                }
            }
        };
        Ok(DriftEvent { at_frac, kind })
    }

    fn policy(&self, v: &Located) -> Result<PolicySpec, LoadError> {
        if let Node::Str(s) = &v.node {
            return match s.as_str() {
                "random" => Ok(PolicySpec::Random),
                "greedy" => Ok(PolicySpec::Greedy),
                "qo-advisor" => Ok(PolicySpec::QoAdvisor),
                "limeqo-wocensored" => Ok(PolicySpec::LimeQoAlsNoCensor),
                other => Err(self.err(
                    v.line,
                    "policy",
                    format!(
                        "unknown policy {other:?} (random, greedy, qo-advisor, \
                         limeqo-wocensored, or a limeqo_als/online_als object)"
                    ),
                )),
            };
        }
        let (tag, inner) = self.single_variant(v, &["limeqo_als", "online_als"], "policy")?;
        match tag {
            "limeqo_als" => {
                let p = "policy.limeqo_als";
                let fields = self.obj(inner, p)?;
                self.no_unknown(
                    fields,
                    &["rank", "drift", "incremental", "rescore_every", "incremental_als"],
                    p,
                )?;
                Ok(PolicySpec::LimeQoAls {
                    rank: self
                        .usize(self.req(inner, fields, "rank", p)?, "policy.limeqo_als.rank")?,
                    drift: self.drift_policy(self.req(inner, fields, "drift", p)?)?,
                    incremental: self.bool(
                        self.req(inner, fields, "incremental", p)?,
                        "policy.limeqo_als.incremental",
                    )?,
                    rescore_every: self.usize(
                        self.req(inner, fields, "rescore_every", p)?,
                        "policy.limeqo_als.rescore_every",
                    )?,
                    // Optional with default false so pre-existing corpus
                    // files need no edit (same pattern as `shards`).
                    incremental_als: match self.get(fields, "incremental_als") {
                        None => false,
                        Some(sv) => self.bool(sv, "policy.limeqo_als.incremental_als")?,
                    },
                })
            }
            _ => {
                let p = "policy.online_als";
                let fields = self.obj(inner, p)?;
                self.no_unknown(
                    fields,
                    &["rank", "explore_prob", "rho", "refresh_every", "cold_bonus"],
                    p,
                )?;
                Ok(PolicySpec::OnlineAls {
                    rank: self
                        .usize(self.req(inner, fields, "rank", p)?, "policy.online_als.rank")?,
                    explore_prob: self.f64(
                        self.req(inner, fields, "explore_prob", p)?,
                        "policy.online_als.explore_prob",
                    )?,
                    rho: self.f64(self.req(inner, fields, "rho", p)?, "policy.online_als.rho")?,
                    refresh_every: self.usize(
                        self.req(inner, fields, "refresh_every", p)?,
                        "policy.online_als.refresh_every",
                    )?,
                    cold_bonus: self.f64(
                        self.req(inner, fields, "cold_bonus", p)?,
                        "policy.online_als.cold_bonus",
                    )?,
                })
            }
        }
    }

    fn drift_policy(&self, v: &Located) -> Result<DriftPolicy, LoadError> {
        let p = "policy.limeqo_als.drift";
        let fields = self.obj(v, p)?;
        self.no_unknown(
            fields,
            &["retain_priors", "prior_decay", "density_gate", "cold_row_bonus", "warm_start"],
            p,
        )?;
        let q = |key: &str| format!("{p}.{key}");
        Ok(DriftPolicy {
            retain_priors: self
                .bool(self.req(v, fields, "retain_priors", p)?, &q("retain_priors"))?,
            prior_decay: self.f64(self.req(v, fields, "prior_decay", p)?, &q("prior_decay"))?,
            density_gate: self.f64(self.req(v, fields, "density_gate", p)?, &q("density_gate"))?,
            cold_row_bonus: self
                .f64(self.req(v, fields, "cold_row_bonus", p)?, &q("cold_row_bonus"))?,
            warm_start: self.bool(self.req(v, fields, "warm_start", p)?, &q("warm_start"))?,
        })
    }

    fn arrivals(&self, v: &Located) -> Result<ArrivalSpec, LoadError> {
        let p = "arrivals";
        let fields = self.obj(v, p)?;
        self.no_unknown(fields, &["count", "model", "burst", "concurrency", "rate"], p)?;
        let model = self.arrival_model(self.req(v, fields, "model", p)?)?;
        Ok(ArrivalSpec {
            count: self.usize(self.req(v, fields, "count", p)?, "arrivals.count")?,
            model,
            burst: match self.get(fields, "burst") {
                None => 1,
                Some(bv) => self.usize(bv, "arrivals.burst")?,
            },
            concurrency: match self.get(fields, "concurrency") {
                None => 1,
                Some(cv) => self.usize(cv, "arrivals.concurrency")?,
            },
            rate: match self.get(fields, "rate") {
                None => 0.0,
                Some(rv) => self.f64(rv, "arrivals.rate")?,
            },
        })
    }

    fn arrival_model(&self, v: &Located) -> Result<ArrivalModel, LoadError> {
        if let Node::Str(s) = &v.node {
            return match s.as_str() {
                "uniform" => Ok(ArrivalModel::Uniform),
                other => Err(self.err(
                    v.line,
                    "arrivals.model",
                    format!(
                        "unknown arrival model {other:?} \
                         (\"uniform\", or a zipf/replay/replay_csv object)"
                    ),
                )),
            };
        }
        let (tag, inner) =
            self.single_variant(v, &["zipf", "replay", "replay_csv"], "arrivals.model")?;
        match tag {
            "zipf" => {
                let fields = self.obj(inner, "arrivals.model.zipf")?;
                self.no_unknown(fields, &["exponent"], "arrivals.model.zipf")?;
                Ok(ArrivalModel::Zipf {
                    exponent: self.f64(
                        self.req(inner, fields, "exponent", "arrivals.model.zipf")?,
                        "arrivals.model.zipf.exponent",
                    )?,
                })
            }
            "replay" => {
                let fields = self.obj(inner, "arrivals.model.replay")?;
                self.no_unknown(fields, &["rows"], "arrivals.model.replay")?;
                let rows = self
                    .arr(
                        self.req(inner, fields, "rows", "arrivals.model.replay")?,
                        "arrivals.model.replay.rows",
                    )?
                    .iter()
                    .map(|r| self.usize(r, "arrivals.model.replay.rows"))
                    .collect::<Result<_, _>>()?;
                Ok(ArrivalModel::Replay { rows })
            }
            _ => {
                let rel = self.str(inner, "arrivals.model.replay_csv")?;
                let base = self.base_dir.ok_or_else(|| {
                    self.err(
                        inner.line,
                        "arrivals.model.replay_csv",
                        "replay_csv needs a file-based load (no base directory)",
                    )
                })?;
                let csv_path = base.join(rel);
                let rows = read_replay_csv(&csv_path).map_err(|e| LoadError {
                    path: e.path,
                    line: e.line,
                    msg: format!("arrivals.model.replay_csv: {}", e.msg),
                })?;
                Ok(ArrivalModel::Replay { rows })
            }
        }
    }
}

/// Read a replay trace CSV: one or more non-negative row indices per line,
/// comma-separated; blank lines and `#` comments ignored.
pub fn read_replay_csv(path: &Path) -> Result<Vec<usize>, LoadError> {
    let text = std::fs::read_to_string(path).map_err(|e| LoadError {
        path: path.to_path_buf(),
        line: None,
        msg: format!("cannot read replay CSV: {e}"),
    })?;
    let mut rows = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        for cell in line.split(',') {
            let cell = cell.trim();
            if cell.is_empty() {
                continue;
            }
            let row: usize = cell.parse().map_err(|_| LoadError {
                path: path.to_path_buf(),
                line: Some(i + 1),
                msg: format!("invalid row index {cell:?}"),
            })?;
            rows.push(row);
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Public parse/load API

/// Parse a JSON scenario from a string; `file` labels errors, `base_dir`
/// resolves `replay_csv` references (reject them when `None`).
pub fn parse_scenario_json(
    src: &str,
    file: &Path,
    base_dir: Option<&Path>,
) -> Result<ScenarioSpec, LoadError> {
    let v = parse_located(src).map_err(|(line, msg)| LoadError {
        path: file.to_path_buf(),
        line: Some(line),
        msg,
    })?;
    Dec { file, base_dir }.spec(&v)
}

/// Parse a `.json` scenario, run [`ScenarioSpec::check`], and return the
/// validated spec; `path` labels errors, `base_dir` resolves `replay_csv`
/// references (reject them when `None`).
pub(crate) fn parse_scenario(
    src: &str,
    path: &Path,
    base_dir: Option<&Path>,
) -> Result<ScenarioSpec, LoadError> {
    let err = |msg: String| LoadError { path: path.to_path_buf(), line: None, msg };
    if path.extension().and_then(|e| e.to_str()) != Some("json") {
        return Err(err("unknown extension (expected .json)".into()));
    }
    let spec = parse_scenario_json(src, path, base_dir)?;
    spec.check().map_err(err)?;
    Ok(spec)
}

/// Load one `.json` scenario file, run [`ScenarioSpec::check`], and
/// return the validated spec.
pub fn load_scenario(path: &Path) -> Result<ScenarioSpec, LoadError> {
    let text = std::fs::read_to_string(path).map_err(|e| LoadError {
        path: path.to_path_buf(),
        line: None,
        msg: format!("cannot read scenario file: {e}"),
    })?;
    parse_scenario(&text, path, path.parent())
}

/// Load every `*.json` directly inside `dir` (subdirectories
/// such as `scenarios/broken/` are deliberately not descended into),
/// sorted by file name for deterministic ordering.
pub fn load_corpus(dir: &Path) -> Result<Vec<(PathBuf, ScenarioSpec)>, LoadError> {
    let entries = std::fs::read_dir(dir).map_err(|e| LoadError {
        path: dir.to_path_buf(),
        line: None,
        msg: format!("cannot read corpus directory: {e}"),
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    paths.sort();
    let mut corpus = Vec::with_capacity(paths.len());
    for path in paths {
        let spec = load_scenario(&path)?;
        corpus.push((path, spec));
    }
    Ok(corpus)
}

// ---------------------------------------------------------------------------
// Serializer (canonical form; exact round trip)

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn arr(items: Vec<Json>) -> Json {
    Json::Arr(items)
}

fn spec_to_json(spec: &ScenarioSpec) -> Json {
    let workload = match &spec.workload {
        ScenarioWorkload::Sim(w) => {
            let mut sim = vec![
                ("name", s(&w.name)),
                ("n_queries", num(w.n_queries as f64)),
                (
                    "catalog",
                    obj(vec![
                        ("name", s(&w.catalog.name)),
                        ("n_tables", num(w.catalog.n_tables as f64)),
                        (
                            "rows_range",
                            arr(vec![num(w.catalog.rows_range.0), num(w.catalog.rows_range.1)]),
                        ),
                        (
                            "width_range",
                            arr(vec![num(w.catalog.width_range.0), num(w.catalog.width_range.1)]),
                        ),
                        ("index_prob", num(w.catalog.index_prob)),
                        ("fact_fraction", num(w.catalog.fact_fraction)),
                    ]),
                ),
                (
                    "class_mix",
                    arr(w
                        .class_mix
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("class", s(c.class.label())),
                                ("weight", num(c.weight)),
                                (
                                    "shape",
                                    s(match c.shape {
                                        JoinShape::Chain => "chain",
                                        JoinShape::Star => "star",
                                        JoinShape::Snowflake => "snowflake",
                                    }),
                                ),
                                (
                                    "n_tables",
                                    arr(vec![num(c.n_tables.0 as f64), num(c.n_tables.1 as f64)]),
                                ),
                                (
                                    "pred_sel_range",
                                    arr(vec![num(c.pred_sel_range.0), num(c.pred_sel_range.1)]),
                                ),
                                ("fanout", arr(vec![num(c.fanout.0), num(c.fanout.1)])),
                                ("pred_prob", num(c.pred_prob)),
                            ])
                        })
                        .collect()),
                ),
                ("target_default_total", num(w.target_default_total)),
            ];
            if let Some(t) = w.templates {
                sim.push(("templates", num(t as f64)));
            }
            sim.push(("seed", num(w.seed as f64)));
            obj(vec![("sim", obj(sim))])
        }
        ScenarioWorkload::Synthetic(w) => obj(vec![(
            "synthetic",
            obj(vec![
                ("n", num(w.n as f64)),
                ("k", num(w.k as f64)),
                ("rank", num(w.rank as f64)),
                ("default_inflation", num(w.default_inflation)),
                ("noise_sigma", num(w.noise_sigma)),
                ("seed", num(w.seed as f64)),
            ]),
        )]),
    };
    let hint_shape = match spec.hint_shape {
        HintShape::Full => s("full"),
        HintShape::Prefix(n) => obj(vec![("prefix", num(n as f64))]),
        HintShape::Strided(n) => obj(vec![("strided", num(n as f64))]),
    };
    let drift = arr(spec
        .drift
        .iter()
        .map(|e| {
            let kind = match e.kind {
                DriftKind::DataShift { days } => {
                    obj(vec![("data_shift", obj(vec![("days", num(days))]))])
                }
                DriftKind::AddQueries { count } => {
                    obj(vec![("add_queries", obj(vec![("count", num(count as f64))]))])
                }
            };
            obj(vec![("at_frac", num(e.at_frac)), ("kind", kind)])
        })
        .collect());
    let policy = match &spec.policy {
        PolicySpec::Random => s("random"),
        PolicySpec::Greedy => s("greedy"),
        PolicySpec::QoAdvisor => s("qo-advisor"),
        PolicySpec::LimeQoAlsNoCensor => s("limeqo-wocensored"),
        PolicySpec::LimeQoAls { rank, drift, incremental, rescore_every, incremental_als } => {
            let mut policy_fields = vec![
                ("rank", num(*rank as f64)),
                (
                    "drift",
                    obj(vec![
                        ("retain_priors", Json::Bool(drift.retain_priors)),
                        ("prior_decay", num(drift.prior_decay)),
                        ("density_gate", num(drift.density_gate)),
                        ("cold_row_bonus", num(drift.cold_row_bonus)),
                        ("warm_start", Json::Bool(drift.warm_start)),
                    ]),
                ),
                ("incremental", Json::Bool(*incremental)),
                ("rescore_every", num(*rescore_every as f64)),
            ];
            // Default omitted so pre-existing corpus files stay byte-stable
            // (same policy as `shards`).
            if *incremental_als {
                policy_fields.push(("incremental_als", Json::Bool(true)));
            }
            obj(vec![("limeqo_als", obj(policy_fields))])
        }
        PolicySpec::OnlineAls { rank, explore_prob, rho, refresh_every, cold_bonus } => {
            obj(vec![(
                "online_als",
                obj(vec![
                    ("rank", num(*rank as f64)),
                    ("explore_prob", num(*explore_prob)),
                    ("rho", num(*rho)),
                    ("refresh_every", num(*refresh_every as f64)),
                    ("cold_bonus", num(*cold_bonus)),
                ]),
            )])
        }
    };
    let mut fields = vec![
        ("name", s(&spec.name)),
        ("summary", s(&spec.summary)),
        ("workload", workload),
        ("hint_shape", hint_shape),
        ("drift", drift),
        ("policy", policy),
        ("budget_multiple", num(spec.budget_multiple)),
        ("batch", num(spec.batch as f64)),
        ("max_steps", num(spec.max_steps as f64)),
        ("seeds", arr(spec.seeds.iter().map(|&x| num(x as f64)).collect())),
    ];
    if let Some(a) = &spec.arrivals {
        let model = match &a.model {
            ArrivalModel::Uniform => s("uniform"),
            ArrivalModel::Zipf { exponent } => {
                obj(vec![("zipf", obj(vec![("exponent", num(*exponent))]))])
            }
            ArrivalModel::Replay { rows } => obj(vec![(
                "replay",
                obj(vec![("rows", arr(rows.iter().map(|&r| num(r as f64)).collect()))]),
            )]),
        };
        fields.push((
            "arrivals",
            obj(vec![
                ("count", num(a.count as f64)),
                ("model", model),
                ("burst", num(a.burst as f64)),
                ("concurrency", num(a.concurrency as f64)),
                ("rate", num(a.rate)),
            ]),
        ));
    }
    // Canonical form omits the default so pre-sharding files stay
    // byte-stable; any other value is load-bearing and must round-trip.
    if spec.shards != 1 {
        fields.push(("shards", num(spec.shards as f64)));
    }
    // Same omit-the-default policy: fault injection off is the pre-knob
    // canonical form, so the corpus stays byte-stable.
    if spec.probe_fail_rate != 0.0 {
        fields.push(("probe_fail_rate", num(spec.probe_fail_rate)));
    }
    if spec.probe_fail_seed != 0 {
        fields.push(("probe_fail_seed", num(spec.probe_fail_seed as f64)));
    }
    obj(fields)
}

/// Serialize a spec to the canonical JSON form ([`parse_scenario_json`] of
/// the result equals the input exactly).
pub fn to_json_string(spec: &ScenarioSpec) -> String {
    let mut out = spec_to_json(spec).render_pretty();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::full_registry;
    use std::path::Path;

    fn label() -> &'static Path {
        Path::new("<test>")
    }

    #[test]
    fn json_round_trip_is_exact_for_every_registry_spec() {
        for spec in full_registry() {
            let text = to_json_string(&spec);
            let back = parse_scenario_json(&text, label(), None)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(back, spec, "JSON round trip diverged for {}", spec.name);
        }
    }

    #[test]
    fn round_trip_preserves_new_arrival_knobs_and_replay() {
        let mut spec = crate::scenario::by_name("online-zipf").unwrap();
        spec.arrivals = Some(ArrivalSpec {
            count: 123,
            model: ArrivalModel::Replay { rows: vec![0, 5, 2, 5] },
            burst: 1,
            concurrency: 1,
            rate: 3.5,
        });
        let back = parse_scenario_json(&to_json_string(&spec), label(), None).unwrap();
        assert_eq!(back, spec);
        spec.arrivals = Some(ArrivalSpec {
            count: 400,
            model: ArrivalModel::Zipf { exponent: 0.9 },
            burst: 4,
            concurrency: 3,
            rate: 0.0,
        });
        let back = parse_scenario_json(&to_json_string(&spec), label(), None).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn shards_round_trips_and_the_default_is_omitted() {
        let mut spec = crate::scenario::by_name("censor-hostile").unwrap();
        assert!(!to_json_string(&spec).contains("shards"), "default layout must stay implicit");
        spec.shards = 8;
        let text = to_json_string(&spec);
        assert!(text.contains("shards"), "{text}");
        let back = parse_scenario_json(&text, label(), None).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn probe_fault_knobs_round_trip_and_the_defaults_are_omitted() {
        let mut spec = crate::scenario::by_name("censor-hostile").unwrap();
        assert!(
            !to_json_string(&spec).contains("probe_fail"),
            "fault-free must stay the implicit canonical form"
        );
        spec.probe_fail_rate = 0.125;
        spec.probe_fail_seed = 42;
        let text = to_json_string(&spec);
        assert!(text.contains("probe_fail_rate"), "{text}");
        assert!(text.contains("probe_fail_seed"), "{text}");
        let back = parse_scenario_json(&text, label(), None).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn incremental_als_round_trips_and_the_default_is_omitted() {
        let mut spec = crate::scenario::by_name("hint-prefix-9").unwrap();
        assert!(
            !to_json_string(&spec).contains("incremental_als"),
            "default kernel path must stay implicit"
        );
        if let limeqo_core::scenario::PolicySpec::LimeQoAls { incremental_als, .. } =
            &mut spec.policy
        {
            *incremental_als = true;
        } else {
            panic!("hint-prefix-9 should carry a LimeQoAls policy");
        }
        let text = to_json_string(&spec);
        assert!(text.contains("incremental_als"), "{text}");
        let back = parse_scenario_json(&text, label(), None).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn json_errors_carry_line_and_field_path() {
        let err = parse_scenario_json("{\n  \"name\": 3\n}", label(), None).unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("name"), "{err}");
        assert!(err.msg.contains("expected a string"), "{err}");

        let err =
            parse_scenario_json("{\n  \"name\": \"x\",\n  oops\n}", label(), None).unwrap_err();
        assert_eq!(err.line, Some(3), "{err}");
    }

    #[test]
    fn unknown_keys_and_policies_are_rejected_with_location() {
        let spec = crate::scenario::by_name("censor-hostile").unwrap();
        let text = to_json_string(&spec).replace("\"batch\"", "\"batches\"");
        let err = parse_scenario_json(&text, label(), None).unwrap_err();
        assert!(err.msg.contains("batches"), "{err}");
        assert!(err.line.is_some());

        let text = to_json_string(&spec).replace("\"limeqo_als\"", "\"limeqo_ml\"");
        let err = parse_scenario_json(&text, label(), None).unwrap_err();
        assert!(err.msg.contains("policy"), "{err}");

        let text = to_json_string(&PolicyProbe::greedy_spec()).replace("\"greedy\"", "\"greedo\"");
        let err = parse_scenario_json(&text, label(), None).unwrap_err();
        assert!(err.msg.contains("unknown policy"), "{err}");
    }

    struct PolicyProbe;
    impl PolicyProbe {
        fn greedy_spec() -> ScenarioSpec {
            let mut spec = crate::scenario::by_name("censor-hostile").unwrap();
            spec.policy = limeqo_core::scenario::PolicySpec::Greedy;
            spec
        }
    }

    #[test]
    fn replay_csv_is_rejected_without_base_dir() {
        let text = r#"{
  "name": "r", "summary": "r",
  "workload": {"synthetic": {"n": 10, "k": 4, "rank": 2, "default_inflation": 2.0, "noise_sigma": 0.0, "seed": 1}},
  "policy": {"online_als": {"rank": 2, "explore_prob": 0.1, "rho": 1.2, "refresh_every": 16, "cold_bonus": 0.0}},
  "batch": 1, "max_steps": 1000, "seeds": [1],
  "arrivals": {"count": 10, "model": {"replay_csv": "trace.csv"}}
}"#;
        let err = parse_scenario_json(text, label(), None).unwrap_err();
        assert!(err.msg.contains("replay_csv"), "{err}");
    }

    #[test]
    fn replay_csv_loads_relative_to_spec_file() {
        let dir = std::env::temp_dir().join(format!("limeqo-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("trace.csv"), "# header comment\n0, 3\n2\n\n1\n").unwrap();
        let text = r#"{
  "name": "r", "summary": "r",
  "workload": {"synthetic": {"n": 10, "k": 4, "rank": 2, "default_inflation": 2.0, "noise_sigma": 0.0, "seed": 1}},
  "policy": {"online_als": {"rank": 2, "explore_prob": 0.1, "rho": 1.2, "refresh_every": 16, "cold_bonus": 0.0}},
  "batch": 1, "max_steps": 1000, "seeds": [1],
  "arrivals": {"count": 6, "model": {"replay_csv": "trace.csv"}}
}"#;
        let spec_path = dir.join("r.json");
        std::fs::write(&spec_path, text).unwrap();
        let spec = load_scenario(&spec_path).unwrap();
        assert_eq!(spec.arrivals.unwrap().model, ArrivalModel::Replay { rows: vec![0, 3, 2, 1] });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_scenario_applies_bounds_checks() {
        let dir = std::env::temp_dir().join(format!("limeqo-badspec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = crate::scenario::by_name("censor-hostile").unwrap();
        spec.seeds.clear();
        let path = dir.join("bad.json");
        std::fs::write(&path, to_json_string(&spec)).unwrap();
        let err = load_scenario(&path).unwrap_err();
        assert!(err.msg.contains("seed"), "{err}");
        assert_eq!(err.path, path);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A workload past `MAX_CELLS` is a load error naming the file, not an
    /// allocation abort in the runner.
    #[test]
    fn load_scenario_rejects_an_oversized_workload() {
        let dir = std::env::temp_dir().join(format!("limeqo-hugespec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = crate::scenario::by_name("censor-hostile").unwrap();
        let ScenarioWorkload::Synthetic(w) = &mut spec.workload else { panic!("synthetic") };
        w.n = 1_000_000_000_000;
        let path = dir.join("huge.json");
        std::fs::write(&path, to_json_string(&spec)).unwrap();
        let err = load_scenario(&path).unwrap_err();
        assert_eq!(err.path, path);
        assert!(err.to_string().starts_with(&format!("{}: ", path.display())), "{err}");
        assert!(err.msg.contains("cell limit"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The same for the two other sizes a spec file sets: a simulated
    /// catalog's table count and an online trace's arrival count.
    #[test]
    fn load_scenario_rejects_an_oversized_catalog_or_arrival_trace() {
        let dir = std::env::temp_dir().join(format!("limeqo-hugesim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut catalog = crate::scenario::by_name("job-mini").unwrap();
        let ScenarioWorkload::Sim(w) = &mut catalog.workload else { panic!("sim") };
        w.catalog.n_tables = 1_000_000_000;
        let mut trace = crate::scenario::by_name("online-uniform").unwrap();
        trace.arrivals.as_mut().expect("online").count = 1_000_000_000_000;
        for (file, spec, want) in
            [("tables.json", catalog, "table limit"), ("arrivals.json", trace, "arrival limit")]
        {
            let path = dir.join(file);
            std::fs::write(&path, to_json_string(&spec)).unwrap();
            let err = load_scenario(&path).unwrap_err();
            assert_eq!(err.path, path);
            assert!(err.to_string().starts_with(&format!("{}: ", path.display())), "{err}");
            assert!(err.msg.contains(want), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
