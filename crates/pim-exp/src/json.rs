//! Minimal JSON emission and validation for `pim-exp --json-out`.
//!
//! Every byte of JSON the workspace writes or reads goes through this module,
//! by design: [`Json`] is a tiny value model with a spec-compliant writer
//! (string escaping, `null` for non-finite floats) and [`parse`] is a strict
//! recursive-descent reader used by the simulation cache's disk tier, the
//! perf ledger and the CI smoke test.
//!
//! ## The accepted grammar
//!
//! [`parse`] accepts RFC 8259 documents: one value, optionally surrounded
//! by whitespace (space, tab, LF, CR), nothing after it.
//!
//! * Literals `null`, `true`, `false`.
//! * Numbers `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` —
//!   no leading `+`, no leading zeros, digits on both sides of the point
//!   and after the exponent marker.
//! * Strings between `"`, with the escapes `\"` `\\` `\/` `\b` `\f` `\n`
//!   `\r` `\t` and `\u` followed by exactly four hex digits; a UTF-16
//!   surrogate pair (`\ud83d\ude00`) is one scalar, a lone surrogate is an
//!   error. One leniency: unescaped control characters are accepted (the
//!   writer never emits them).
//! * Arrays and objects, nested at most [`MAX_DEPTH`] deep; deeper input
//!   is an error, not a stack overflow. Duplicate object keys are kept in
//!   order ([`Json::get`] returns the first).
//!
//! Parsing is one pass, O(n) in the input's bytes: a string is consumed as
//! runs up to the next `"` or `\`, each appended once.
//!
//! One edge is lossy: every number parses as an `f64` ([`Json::Num`]), so
//! an integer at or beyond 2^53 comes back as its nearest float and an
//! exponent beyond the `f64` range as infinity (which renders as `null`).
//! The writer's [`Json::UInt`] is exact on the way out only — which is why
//! the simulation cache stores its 64-bit fingerprint as a hex string.
//!
//! [`crate::design_space::DesignSpaceSweep`] dumps through
//! [`sweeps_to_json`]: one object per swept cell carrying the run
//! coordinates (workload, design, placement, executor, tasklets) and the
//! full [`pim_stm::ExecProfile`] — counts, abort histogram, per-phase times
//! in the executor-native unit, DMA traffic and the per-commit efficiency
//! metrics — so external plotting needs no re-run.
//!
//! `--fleet` runs dump through [`fleet_to_json`] instead: one object
//! holding the weak-scaling curve and the skew sweep, each point a full
//! [`pim_fleet::FleetReport`] (totals, merged profile, imbalance summary,
//! per-primitive transfer ledger, rebalance and pipeline panels, the
//! per-round throughput series, analytic cross-check total). Repeated
//! points carry a `repeat_spread` block, and rebalanced skew points their
//! static baseline, recovered throughput and break-even round.
//!
//! `--grid` searches dump through [`grid_to_json`]: one object with the
//! search coordinates (`mode: "grid"`, workload, placement, tasklets,
//! scale, seed, the burst-cap ladder) and a ranked `cells` array — each
//! cell its full knob vector (`stm` as the grid composition name, `retry`,
//! `read_strategy`, `write_back`, `lock_order`, `max_burst_words`), its
//! measured `throughput_tx_per_sec`, `makespan_seconds`, `total_time`,
//! `commits`/`aborts`/`abort_rate`, its 1-based `rank`, its
//! `slowdown_vs_best` (1.0 for the winner) and an `is_default` marker on
//! the static-defaults cell. A `cache` object records the simulation-cache
//! movement of the search itself (`hits`, `misses`, `disk_hits`,
//! `bytes_read`, `bytes_written`), so a warm re-run is distinguishable
//! from a cold one in the dump alone.
//!
//! `--service` sweeps dump through [`service_to_json`]: one object with
//! the sweep coordinates (`mode: "service"`, the arrival shape, mix,
//! skew, STM design/tier, tasklets, scale, seed, repeat, the request
//! count, the rate ladder and a `fleet` block when sharded) and a
//! `points` / `fleet_points` array, one object per offered rate ×
//! executor. Each point carries the rates (`offered_rate`,
//! `achieved_rate`), the commit/abort totals, the makespan, and a
//! `latency` object with the three panel components — `queueing`,
//! `service`, `sojourn` — each as quantile ticks (`p50`/`p95`/`p99`/
//! `max`, exact integers in the executor's native unit) plus the same
//! quantiles converted to seconds. `--repeat` points carry a
//! `repeat_spread` block with the mean ± CI95 of the p99 sojourn and the
//! achieved rate.

use std::fmt;

use pim_fleet::{FleetReport, PrimitiveStats};
use pim_sim::Phase;
use pim_stm::{AbortReason, ExecProfile};

use crate::design_space::{DesignSpaceSweep, Spread};
use crate::fleet::FleetSweep;
use crate::grid::GridSearch;
use crate::service::ServiceSweep;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, emitted exactly (no f64 rounding, so 64-bit
    /// seeds and counters survive the dump bit-for-bit).
    UInt(u64),
    /// A number (emitted as `null` when not finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for an unsigned counter or identifier (exact at full
    /// 64-bit precision).
    pub fn u64(value: u64) -> Json {
        Json::UInt(value)
    }

    /// Shorthand for a string value.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders into `out`, the one sink every serialisation goes through.
    fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => write!(out, "{n}"),
            Json::Num(n) if n.is_finite() => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(out, "{}", *n as i64)
                } else {
                    write!(out, "{n}")
                }
            }
            // JSON has no NaN/Infinity literal.
            Json::Num(_) => out.write_str("null"),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(fields) => {
                out.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_string(key, out)?;
                    out.write_char(':')?;
                    value.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// Serialises the value as compact JSON (the `ToString` surface).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// Writes `s` quoted, as runs of bytes that need no escape (every escaped
/// byte is ASCII, so a run's ends are char boundaries).
fn write_string(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.write_str(&s[run..i])?;
        match byte {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{byte:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document, rejecting trailing garbage (see the
/// [module documentation](self) for the grammar and the O(n) bound).
///
/// # Errors
///
/// Returns a human-readable message naming the byte offset of the first
/// syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut parser = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing characters at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            // The recursion is bounded by a constant, not by the input.
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos))
            }
            Some(&open @ (b'[' | b'{')) => {
                self.depth += 1;
                let container = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                container
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // One run up to the next `"` or `\`. Both are ASCII and so never
            // inside a multi-byte scalar: the run's ends are char boundaries
            // of the `&str` input and the slice needs no re-validation.
            let run = self.pos;
            self.pos += self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[run..self.pos]);
            let closes = self.bytes[self.pos] == b'"';
            self.pos += 1;
            if closes {
                return Ok(out);
            }
            match self.bytes.get(self.pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let at = self.pos;
                    let mut code = self.hex4()?;
                    if (0xd800..0xdc00).contains(&code)
                        && self.bytes[self.pos + 1..].starts_with(b"\\u")
                    {
                        self.pos += 2;
                        let low = self.hex4()?;
                        // Anything but a low surrogate leaves `code` a lone
                        // high one, rejected below.
                        if (0xdc00..0xe000).contains(&low) {
                            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        }
                    }
                    let scalar = char::from_u32(code)
                        .ok_or_else(|| format!("lone surrogate at byte {at}"))?;
                    out.push(scalar);
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    /// Reads the four hex digits after the `u` at `self.pos` and moves onto
    /// the last of them.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.bytes.get(self.pos + 1..self.pos + 5).ok_or("truncated \\u escape")?;
        let code = digits
            .iter()
            .try_fold(0, |code, &digit| Some(code << 4 | (digit as char).to_digit(16)?))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let number =
            text.parse::<f64>().map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))?;
        // `f64::from_str` is laxer than JSON (`01`, `1.`, `.5e1`).
        if !is_rfc8259_number(text.as_bytes()) {
            return Err(format!("bad number {text:?} at byte {start}: not a JSON number"));
        }
        Ok(Json::Num(number))
    }
}

/// RFC 8259 §6: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn is_rfc8259_number(text: &[u8]) -> bool {
    let digits = |text: &[u8]| text.iter().take_while(|b| b.is_ascii_digit()).count();
    let mut rest = text.strip_prefix(b"-").unwrap_or(text);
    let int = digits(rest);
    if int == 0 || (int > 1 && rest[0] == b'0') {
        return false;
    }
    rest = &rest[int..];
    if let [b'.', frac @ ..] = rest {
        rest = &frac[digits(frac)..];
        if frac.len() == rest.len() {
            return false; // no digit after the point
        }
    }
    if let [b'e' | b'E', exp @ ..] = rest {
        let exp = exp.strip_prefix(b"+").or(exp.strip_prefix(b"-")).unwrap_or(exp);
        rest = &exp[digits(exp)..];
        if exp.len() == rest.len() {
            return false; // no digit in the exponent
        }
    }
    rest.is_empty()
}

/// Serialises every cell of `sweeps` as one flat JSON array of per-cell
/// objects (see the [module documentation](self) for the schema).
pub fn sweeps_to_json(sweeps: &[DesignSpaceSweep]) -> Json {
    let mut cells = Vec::new();
    for sweep in sweeps {
        let options = &sweep.options;
        for point in &sweep.points {
            let p = &point.profile;
            let phases = Json::Obj(
                Phase::ALL
                    .iter()
                    .map(|&ph| (ph.label().to_string(), Json::u64(p.phase(ph))))
                    .collect(),
            );
            let aborts_by_reason = Json::Obj(
                AbortReason::ALL
                    .iter()
                    .map(|&r| (r.label().to_string(), Json::u64(p.aborts_for(r))))
                    .collect(),
            );
            cells.push(Json::Obj(vec![
                ("workload".into(), Json::str(sweep.workload.name())),
                ("placement".into(), Json::str(sweep.placement.name())),
                ("executor".into(), Json::str(options.executor.name())),
                ("stm".into(), Json::str(point.kind.name())),
                ("tasklets".into(), Json::u64(point.tasklets as u64)),
                ("scale".into(), Json::Num(options.scale)),
                ("seed".into(), Json::u64(options.seed)),
                ("read_strategy".into(), Json::str(options.knobs.read_strategy.name())),
                ("retry".into(), Json::str(options.knobs.retry.name())),
                ("max_burst_words".into(), Json::u64(u64::from(options.knobs.max_burst_words))),
                (
                    "record_words".into(),
                    options.record_words.map_or(Json::Null, |w| Json::u64(u64::from(w))),
                ),
                ("time_unit".into(), Json::str(p.time_domain.unit())),
                ("commits".into(), Json::u64(point.commits)),
                ("aborts".into(), Json::u64(point.aborts)),
                ("abort_rate".into(), Json::Num(point.abort_rate)),
                (
                    "throughput_tx_per_sec".into(),
                    point.throughput_tx_per_sec.map_or(Json::Null, Json::Num),
                ),
                ("makespan_seconds".into(), point.makespan_seconds.map_or(Json::Null, Json::Num)),
                ("dma_setups".into(), Json::u64(p.dma_setups())),
                ("dma_words".into(), Json::u64(p.dma_words())),
                ("dma_setups_per_commit".into(), Json::Num(p.dma_setups_per_commit())),
                ("dma_words_per_commit".into(), Json::Num(p.dma_words_per_commit())),
                ("dma_bytes_per_commit".into(), Json::Num(p.dma_bytes_per_commit())),
                ("backoff_time".into(), Json::u64(p.backoff_time())),
                ("total_time".into(), Json::u64(p.total_time())),
                ("phases".into(), phases),
                ("aborts_by_reason".into(), aborts_by_reason),
                (
                    "repeat_spread".into(),
                    point.total_time_spread.zip(point.abort_spread).map_or(
                        Json::Null,
                        |(time, aborts)| {
                            Json::Obj(vec![
                                ("runs".into(), Json::u64(time.runs as u64)),
                                ("min_total_time".into(), Json::u64(time.min as u64)),
                                ("median_total_time".into(), Json::u64(p.total_time())),
                                ("max_total_time".into(), Json::u64(time.max as u64)),
                                ("mean_total_time".into(), Json::Num(time.mean)),
                                ("ci95_total_time".into(), Json::Num(time.ci95)),
                                ("min_aborts".into(), Json::u64(aborts.min as u64)),
                                ("max_aborts".into(), Json::u64(aborts.max as u64)),
                            ])
                        },
                    ),
                ),
            ]));
        }
    }
    Json::Arr(cells)
}

/// Serialises a merged [`ExecProfile`] with the same keys the per-cell
/// sweep dump uses (counts, abort histogram, phases, DMA traffic).
fn profile_to_json(p: &ExecProfile) -> Json {
    Json::Obj(vec![
        ("time_unit".into(), Json::str(p.time_domain.unit())),
        ("commits".into(), Json::u64(p.commits())),
        ("aborts".into(), Json::u64(p.aborts())),
        ("abort_rate".into(), Json::Num(p.abort_rate())),
        ("total_time".into(), Json::u64(p.total_time())),
        ("backoff_time".into(), Json::u64(p.backoff_time())),
        ("dma_setups".into(), Json::u64(p.dma_setups())),
        ("dma_words".into(), Json::u64(p.dma_words())),
        (
            "phases".into(),
            Json::Obj(
                Phase::ALL
                    .iter()
                    .map(|&ph| (ph.label().to_string(), Json::u64(p.phase(ph))))
                    .collect(),
            ),
        ),
        (
            "aborts_by_reason".into(),
            Json::Obj(
                AbortReason::ALL
                    .iter()
                    .map(|&r| (r.label().to_string(), Json::u64(p.aborts_for(r))))
                    .collect(),
            ),
        ),
    ])
}

fn primitive_to_json(stats: &PrimitiveStats) -> Json {
    Json::Obj(vec![
        ("calls".into(), Json::u64(stats.calls)),
        ("bytes".into(), Json::u64(stats.bytes)),
        ("seconds".into(), Json::Num(stats.seconds)),
    ])
}

/// A fleet point's `repeat_spread`: its makespan and throughput spreads.
fn fleet_spread_to_json(makespan: Option<Spread>, throughput: Option<Spread>) -> Json {
    makespan.zip(throughput).map_or(Json::Null, |(makespan, tx)| {
        Json::Obj(vec![
            ("runs".into(), Json::u64(makespan.runs as u64)),
            ("min_makespan_seconds".into(), Json::Num(makespan.min)),
            ("mean_makespan_seconds".into(), Json::Num(makespan.mean)),
            ("max_makespan_seconds".into(), Json::Num(makespan.max)),
            ("ci95_makespan_seconds".into(), Json::Num(makespan.ci95)),
            ("mean_tx_per_sec".into(), Json::Num(tx.mean)),
            ("ci95_tx_per_sec".into(), Json::Num(tx.ci95)),
        ])
    })
}

/// Serialises one fleet report: totals, the merged profile, the imbalance
/// summary, the per-primitive transfer ledger, the pipeline and rebalance
/// panels, the per-round throughput series and the analytic cross-check
/// total.
fn fleet_report_to_json(r: &FleetReport) -> Json {
    let per_round = r.round_throughput_series();
    let cumulative = r.cumulative_throughput_series();
    let rounds_detail = Json::Arr(
        r.rounds
            .iter()
            .zip(per_round.iter().zip(&cumulative))
            .map(|(round, (&tx, &cum))| {
                Json::Obj(vec![
                    ("round".into(), Json::u64(round.round as u64)),
                    ("commits".into(), Json::u64(round.commits)),
                    ("migrated_keys".into(), Json::u64(round.migrated_keys)),
                    ("overlapped".into(), Json::Bool(round.overlapped)),
                    ("hidden_seconds".into(), Json::Num(round.hidden_seconds)),
                    ("pipelined_seconds".into(), Json::Num(round.pipelined_seconds())),
                    ("tx_per_sec".into(), Json::Num(tx)),
                    ("cumulative_tx_per_sec".into(), Json::Num(cum)),
                ])
            })
            .collect(),
    );
    Json::Obj(vec![
        ("n_dpus".into(), Json::u64(r.n_dpus as u64)),
        ("tasklets".into(), Json::u64(r.tasklets as u64)),
        ("routing".into(), Json::str(r.routing.label())),
        ("global_txns".into(), Json::u64(r.global_txns)),
        ("dispatched_subtxns".into(), Json::u64(r.dispatched_subtxns)),
        ("commits".into(), Json::u64(r.total_commits)),
        ("aborts".into(), Json::u64(r.total_aborts)),
        ("rejected".into(), Json::u64(r.total_rejected)),
        ("increments".into(), Json::u64(r.total_increments)),
        ("fingerprint".into(), Json::u64(r.fingerprint)),
        ("rounds".into(), Json::u64(r.rounds.len() as u64)),
        ("makespan_seconds".into(), Json::Num(r.makespan_seconds)),
        ("throughput_tx_per_sec".into(), Json::Num(r.throughput_tx_per_sec())),
        ("dpu_barrier_seconds".into(), Json::Num(r.dpu_barrier_seconds())),
        ("host_seconds".into(), Json::Num(r.host_seconds())),
        ("analytic_total_seconds".into(), Json::Num(r.analytic_total_seconds())),
        (
            "imbalance".into(),
            Json::Obj(vec![
                ("hottest_shard".into(), Json::u64(u64::from(r.imbalance.hottest_shard))),
                ("hottest_commit_share".into(), Json::Num(r.imbalance.hottest_commit_share)),
                ("max_over_mean_commits".into(), Json::Num(r.imbalance.max_over_mean_commits)),
                ("cv_commits".into(), Json::Num(r.imbalance.cv_commits)),
                ("max_over_mean_busy".into(), Json::Num(r.imbalance.max_over_mean_busy)),
                ("cv_busy".into(), Json::Num(r.imbalance.cv_busy)),
            ]),
        ),
        (
            "transfers".into(),
            Json::Obj(vec![
                ("broadcast".into(), primitive_to_json(&r.ledger.broadcast)),
                ("scatter".into(), primitive_to_json(&r.ledger.scatter)),
                ("gather".into(), primitive_to_json(&r.ledger.gather)),
                ("total_bytes".into(), Json::u64(r.ledger.total_bytes())),
                ("total_seconds".into(), Json::Num(r.ledger.total_seconds())),
            ]),
        ),
        (
            "pipeline".into(),
            Json::Obj(vec![
                ("enabled".into(), Json::Bool(r.pipeline.enabled)),
                ("overlapped_rounds".into(), Json::u64(r.pipeline.overlapped_rounds)),
                ("stalled_rounds".into(), Json::u64(r.pipeline.stalled_rounds)),
                ("hidden_seconds".into(), Json::Num(r.pipeline.hidden_seconds)),
                ("exposed_pre_seconds".into(), Json::Num(r.pipeline.exposed_pre_seconds)),
            ]),
        ),
        (
            "rebalance".into(),
            Json::Obj(vec![
                ("policy".into(), Json::str(r.rebalance.policy.to_string())),
                ("rebalances".into(), Json::u64(r.rebalance.rebalances)),
                ("migrated_keys".into(), Json::u64(r.rebalance.migrated_keys)),
                ("migration_bytes".into(), Json::u64(r.rebalance.migration_bytes)),
                ("migration_seconds".into(), Json::Num(r.rebalance.migration_seconds)),
            ]),
        ),
        ("rounds_detail".into(), rounds_detail),
        ("profile".into(), profile_to_json(&r.profile)),
    ])
}

/// Serialises a whole `--fleet` sweep: the weak-scaling curve and the skew
/// sweep, each point carrying a full [`FleetReport`] object.
pub fn fleet_to_json(sweep: &FleetSweep) -> Json {
    Json::Obj(vec![
        ("mode".into(), Json::str("fleet")),
        ("stm".into(), Json::str(sweep.options.kind.name())),
        ("routing".into(), Json::str(sweep.options.routing.label())),
        ("scale".into(), Json::Num(sweep.options.scale)),
        ("seed".into(), Json::u64(sweep.options.seed)),
        ("rebalance_policy".into(), Json::str(sweep.options.rebalance.to_string())),
        ("overlap".into(), Json::Bool(sweep.options.overlap)),
        ("repeat".into(), Json::u64(sweep.options.repeat as u64)),
        ("phases".into(), Json::u64(u64::from(sweep.options.phases))),
        ("keys_per_dpu".into(), Json::u64(u64::from(sweep.keys_per_dpu))),
        ("txns_per_dpu".into(), Json::u64(u64::from(sweep.txns_per_dpu))),
        (
            "scaling".into(),
            Json::Arr(
                sweep
                    .scaling
                    .iter()
                    .map(|p| {
                        let Json::Obj(mut fields) = fleet_report_to_json(&p.report) else {
                            unreachable!("fleet reports serialise as objects")
                        };
                        fields.push((
                            "repeat_spread".into(),
                            fleet_spread_to_json(p.makespan_spread, p.throughput_spread),
                        ));
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "skew".into(),
            Json::Arr(
                sweep
                    .skew
                    .iter()
                    .map(|p| {
                        let mut obj = vec![("theta".into(), Json::Num(p.theta))];
                        let Json::Obj(fields) = fleet_report_to_json(&p.report) else {
                            unreachable!("fleet reports serialise as objects")
                        };
                        obj.extend(fields);
                        obj.push((
                            "repeat_spread".into(),
                            fleet_spread_to_json(p.makespan_spread, p.throughput_spread),
                        ));
                        obj.push((
                            "baseline_tx_per_sec".into(),
                            p.baseline
                                .as_ref()
                                .map_or(Json::Null, |b| Json::Num(b.throughput_tx_per_sec())),
                        ));
                        obj.push((
                            "recovered_throughput".into(),
                            p.recovered_tx_per_sec().map_or(Json::Null, Json::Num),
                        ));
                        obj.push((
                            "break_even_round".into(),
                            p.break_even_round().map_or(Json::Null, |r| Json::u64(r as u64)),
                        ));
                        Json::Obj(obj)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Serialises a `--grid` full-grid search: the search coordinates and the
/// ranked cell array (see the [module documentation](self) for the schema).
pub fn grid_to_json(search: &GridSearch) -> Json {
    Json::Obj(vec![
        ("mode".into(), Json::str("grid")),
        ("workload".into(), Json::str(search.workload.name())),
        ("placement".into(), Json::str(search.placement.name())),
        ("tasklets".into(), Json::u64(search.tasklets as u64)),
        ("scale".into(), Json::Num(search.scale)),
        ("seed".into(), Json::u64(search.seed)),
        ("caps".into(), Json::Arr(search.caps.iter().map(|&c| Json::u64(u64::from(c))).collect())),
        (
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::u64(search.cache.hits)),
                ("misses".into(), Json::u64(search.cache.misses)),
                ("disk_hits".into(), Json::u64(search.cache.disk_hits)),
                ("bytes_read".into(), Json::u64(search.cache.bytes_read)),
                ("bytes_written".into(), Json::u64(search.cache.bytes_written)),
            ]),
        ),
        (
            "cells".into(),
            Json::Arr(
                search
                    .cells
                    .iter()
                    .map(|c| {
                        let k = &c.spec.knobs;
                        Json::Obj(vec![
                            ("rank".into(), Json::u64(c.rank as u64)),
                            ("stm".into(), Json::str(c.spec.kind.grid_name())),
                            ("retry".into(), Json::str(k.retry.name())),
                            ("read_strategy".into(), Json::str(k.read_strategy.name())),
                            ("write_back".into(), Json::str(k.write_back.name())),
                            ("lock_order".into(), Json::str(k.lock_order.name())),
                            ("max_burst_words".into(), Json::u64(u64::from(k.max_burst_words))),
                            ("throughput_tx_per_sec".into(), Json::Num(c.throughput_tx_per_sec)),
                            ("makespan_seconds".into(), Json::Num(c.makespan_seconds)),
                            ("total_time".into(), Json::u64(c.total_time)),
                            ("commits".into(), Json::u64(c.commits)),
                            ("aborts".into(), Json::u64(c.aborts)),
                            ("abort_rate".into(), Json::Num(c.abort_rate)),
                            ("slowdown_vs_best".into(), Json::Num(c.slowdown_vs_best)),
                            ("is_default".into(), Json::Bool(c.is_default)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One latency-panel component: the quantile ticks (exact integers in the
/// executor-native unit) plus the same quantiles in seconds.
fn service_histogram_to_json(hist: &pim_service::ServiceHistogram, ticks_per_second: f64) -> Json {
    let secs = |ticks: u64| Json::Num(hist.seconds(ticks, ticks_per_second));
    Json::Obj(vec![
        ("count".into(), Json::u64(hist.count())),
        ("p50".into(), Json::u64(hist.quantile(0.50))),
        ("p95".into(), Json::u64(hist.quantile(0.95))),
        ("p99".into(), Json::u64(hist.quantile(0.99))),
        ("max".into(), Json::u64(hist.hist.max())),
        ("mean".into(), Json::Num(hist.hist.mean())),
        ("p50_seconds".into(), secs(hist.quantile(0.50))),
        ("p95_seconds".into(), secs(hist.quantile(0.95))),
        ("p99_seconds".into(), secs(hist.quantile(0.99))),
        ("max_seconds".into(), secs(hist.hist.max())),
    ])
}

fn latency_panel_to_json(panel: &pim_service::LatencyPanel, ticks_per_second: f64) -> Json {
    Json::Obj(vec![
        ("queueing".into(), service_histogram_to_json(&panel.queueing, ticks_per_second)),
        ("service".into(), service_histogram_to_json(&panel.service, ticks_per_second)),
        ("sojourn".into(), service_histogram_to_json(&panel.sojourn, ticks_per_second)),
    ])
}

/// A service point's `repeat_spread`: its p99 sojourn and achieved-rate
/// spreads.
fn service_spread_to_json(p99: Option<Spread>, rate: Option<Spread>) -> Json {
    p99.zip(rate).map_or(Json::Null, |(p99, rate)| {
        Json::Obj(vec![
            ("runs".into(), Json::u64(p99.runs as u64)),
            ("mean_p99_sojourn_seconds".into(), Json::Num(p99.mean)),
            ("ci95_p99_sojourn_seconds".into(), Json::Num(p99.ci95)),
            ("mean_achieved_rate".into(), Json::Num(rate.mean)),
            ("ci95_achieved_rate".into(), Json::Num(rate.ci95)),
        ])
    })
}

/// Serialises a `--service` sweep (see the [module documentation](self)
/// for the schema).
pub fn service_to_json(sweep: &ServiceSweep) -> Json {
    let o = &sweep.options;
    Json::Obj(vec![
        ("mode".into(), Json::str("service")),
        ("arrival".into(), Json::str(o.arrival.clone())),
        ("mix".into(), Json::str(format!("{}:{}:{}", o.mix.get, o.mix.put, o.mix.transfer))),
        ("dist".into(), Json::str(o.dist.to_string())),
        ("stm".into(), Json::str(o.kind.name())),
        ("tier".into(), Json::str(o.placement.name())),
        ("tasklets".into(), Json::u64(o.tasklets as u64)),
        ("scale".into(), Json::Num(o.scale)),
        ("seed".into(), Json::u64(o.seed)),
        ("repeat".into(), Json::u64(o.repeat as u64)),
        ("requests".into(), Json::u64(o.requests())),
        ("rates".into(), Json::Arr(o.effective_rates().iter().map(|&r| Json::Num(r)).collect())),
        (
            "fleet".into(),
            sweep.fleet.as_ref().map_or(Json::Null, |f| {
                Json::Obj(vec![
                    ("shards".into(), Json::u64(u64::from(f.shards))),
                    ("rebalance".into(), Json::str(f.rebalance.to_string())),
                    ("overlap".into(), Json::Bool(f.overlap)),
                ])
            }),
        ),
        (
            "points".into(),
            Json::Arr(
                sweep
                    .points
                    .iter()
                    .map(|p| {
                        let r = &p.report;
                        Json::Obj(vec![
                            ("executor".into(), Json::str(r.executor.name())),
                            ("arrival".into(), Json::str(r.arrival.to_string())),
                            ("time_unit".into(), Json::str(r.panel.time_domain().unit())),
                            ("offered_rate".into(), Json::Num(r.offered_rate())),
                            ("achieved_rate".into(), Json::Num(r.achieved_rate())),
                            ("completed".into(), Json::u64(r.completed)),
                            ("commits".into(), Json::u64(r.commits)),
                            ("aborts".into(), Json::u64(r.aborts)),
                            ("abort_rate".into(), Json::Num(r.abort_rate())),
                            ("makespan_seconds".into(), Json::Num(r.makespan_seconds)),
                            ("ticks_per_second".into(), Json::Num(r.ticks_per_second)),
                            ("latency".into(), latency_panel_to_json(&r.panel, r.ticks_per_second)),
                            (
                                "repeat_spread".into(),
                                service_spread_to_json(
                                    p.p99_sojourn_spread,
                                    p.achieved_rate_spread,
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fleet_points".into(),
            Json::Arr(
                sweep
                    .fleet_points
                    .iter()
                    .map(|p| {
                        let r = &p.report;
                        Json::Obj(vec![
                            ("shards".into(), Json::u64(u64::from(r.shards))),
                            ("arrival".into(), Json::str(r.arrival.to_string())),
                            ("time_unit".into(), Json::str(r.panel.time_domain().unit())),
                            ("offered_rate".into(), Json::Num(r.offered_rate())),
                            ("achieved_rate".into(), Json::Num(r.achieved_rate())),
                            ("completed".into(), Json::u64(r.completed)),
                            ("commits".into(), Json::u64(r.commits)),
                            ("aborts".into(), Json::u64(r.aborts)),
                            ("abort_rate".into(), Json::Num(r.abort_rate())),
                            ("rounds".into(), Json::u64(r.rounds)),
                            ("rebalances".into(), Json::u64(r.rebalances)),
                            ("migrated_keys".into(), Json::u64(r.migrated_keys)),
                            ("makespan_seconds".into(), Json::Num(r.makespan_seconds)),
                            ("dpu_seconds".into(), Json::Num(r.dpu_seconds)),
                            ("host_seconds".into(), Json::Num(r.host_seconds)),
                            ("hidden_seconds".into(), Json::Num(r.hidden_seconds)),
                            (
                                "per_shard_completed".into(),
                                Json::Arr(
                                    r.per_shard_completed.iter().map(|&c| Json::u64(c)).collect(),
                                ),
                            ),
                            ("ticks_per_second".into(), Json::Num(r.ticks_per_second)),
                            ("latency".into(), latency_panel_to_json(&r.panel, r.ticks_per_second)),
                            (
                                "repeat_spread".into(),
                                service_spread_to_json(
                                    p.p99_sojourn_spread,
                                    p.achieved_rate_spread,
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn values_roundtrip_through_the_parser() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("Tiny \"ETLWB\"\n")),
            ("count".into(), Json::u64(42)),
            ("rate".into(), Json::Num(0.125)),
            ("nan".into(), Json::Num(f64::NAN)),
            ("flags".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_string();
        let parsed = parse(&text).expect("writer output must parse");
        assert_eq!(parsed.get("count"), Some(&Json::Num(42.0)));
        assert_eq!(parsed.get("rate"), Some(&Json::Num(0.125)));
        // Non-finite numbers are emitted as null.
        assert_eq!(parsed.get("nan"), Some(&Json::Null));
        assert_eq!(parsed.get("name"), Some(&Json::Str("Tiny \"ETLWB\"\n".into())));
        // Every escape the grammar has, \u pairs included.
        let parsed = parse(r#""\"\\\/\b\f\n\r\t\u0041\u00e9\u20AC\ud83d\ude00\uDBFF\uDFFF""#);
        assert_eq!(parsed, Ok(Json::str("\"\\/\u{8}\u{c}\n\r\tAé€😀\u{10ffff}")));
        // Raw multi-byte text and escapes interleave; the writer escapes
        // control characters as \u00XX and the parser reads them back.
        let text = "é\u{1}€\u{1f}😀\"\\\u{7f}";
        assert_eq!(Json::str(text).to_string(), r#""é\u0001€\u001f😀\"\\"#.to_owned() + "\u{7f}\"");
        assert_eq!(parse(&Json::str(text).to_string()), Ok(Json::str(text)));
    }

    #[test]
    fn u64_values_are_emitted_exactly() {
        // 2^53 + 1 is the first integer an f64 cannot represent; a seed
        // dumped through a float would come back as its rounded neighbour.
        let big = (1u64 << 53) + 1;
        assert_eq!(Json::u64(big).to_string(), "9007199254740993");
        assert_eq!(Json::u64(u64::MAX).to_string(), u64::MAX.to_string());
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("7", 7.0),
            ("-12.5", -12.5),
            ("0.001", 0.001),
            ("1e3", 1e3),
            ("1E+3", 1e3),
            ("25e-1", 2.5),
            ("-0.5e-2", -0.005),
            ("9007199254740993", 9007199254740992.0),
        ] {
            assert_eq!(parse(text), Ok(Json::Num(value)), "{text}");
        }
        // What the writer emits for the extremes still parses, exactly.
        for n in [f64::MAX, f64::MIN_POSITIVE, 5e-324, -1e300, 9e15, 0.1 + 0.2] {
            assert_eq!(parse(&Json::Num(n).to_string()), Ok(Json::Num(n)), "{n:e}");
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for (bad, error) in [
            ("", "unexpected character at byte 0"),
            ("{", "expected '\"' at byte 1"),
            ("[1,]", "unexpected character at byte 3"),
            ("{\"a\":}", "unexpected character at byte 5"),
            ("[1] trailing", "trailing characters at byte 4"),
            ("nul", "invalid literal at byte 0"),
            ("\"open", "unterminated string"),
            ("\"open\\", "bad escape at byte 6"),
            ("[\"a\\x\"]", "bad escape at byte 4"),
            ("[1 2]", "expected ',' or ']' at byte 3"),
            ("{\"a\":1 \"b\":2}", "expected ',' or '}' at byte 7"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("  ]", "unexpected character at byte 2"),
            // \u takes exactly four hex digits; surrogates must pair up.
            ("\"\\u+041\"", "bad \\u escape at byte 2"),
            ("\"\\u00g0\"", "bad \\u escape at byte 2"),
            ("\"\\u00é\"", "bad \\u escape at byte 2"),
            ("\"\\u12", "truncated \\u escape"),
            ("\"\\ud83d\"", "lone surrogate at byte 2"),
            ("\"\\ude00\"", "lone surrogate at byte 2"),
            ("\"\\ud83d\\u0041\"", "lone surrogate at byte 2"),
            ("\"\\ud83d\\n\"", "lone surrogate at byte 2"),
            ("\"\\ud83d\\ud83d\"", "lone surrogate at byte 2"),
            ("\"a\\ud83d\\u12\"", "truncated \\u escape"),
            // Numbers f64::from_str would take but RFC 8259 does not.
            ("01", "bad number \"01\" at byte 0: not a JSON number"),
            ("-01.5", "bad number \"-01.5\" at byte 0: not a JSON number"),
            ("[1.]", "bad number \"1.\" at byte 1: not a JSON number"),
            ("1.e3", "bad number \"1.e3\" at byte 0: not a JSON number"),
            ("+1", "unexpected character at byte 0"),
            (".5", "unexpected character at byte 0"),
            ("[-.5]", "bad number \"-.5\" at byte 1: not a JSON number"),
            ("1e", "bad number \"1e\" at byte 0: invalid float literal"),
            ("1e+", "bad number \"1e+\" at byte 0: invalid float literal"),
            ("-", "bad number \"-\" at byte 0: invalid float literal"),
            ("{\"a\":1-2}", "bad number \"1-2\" at byte 5: invalid float literal"),
            ("1.5.2", "bad number \"1.5.2\" at byte 0: invalid float literal"),
        ] {
            assert_eq!(parse(bad), Err(error.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_the_stack() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"k\":", "}", MAX_DEPTH - 1).replace(":}", ":0}")).is_ok());
        assert_eq!(
            parse(&nest("[", "]", MAX_DEPTH + 1)),
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"))
        );
        assert_eq!(
            parse(&nest("[{\"k\":", "}]", MAX_DEPTH)),
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", MAX_DEPTH / 2 * 6))
        );
        // Depth counts open containers, not containers seen: siblings are free.
        let wide = format!("[{}[]]", "[[]],".repeat(10 * MAX_DEPTH));
        assert!(parse(&wide).is_ok());
        // The input that used to overflow the stack and kill the process.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    /// The size guard: ≥ 2 MB — one 1 MB string, then 50 k short-string
    /// fields — must parse well inside a tier-1 run. A parser that does work
    /// proportional to the *remaining* input per character (the quadratic
    /// `string` this module used to have) needs minutes for it, so that
    /// cannot come back unnoticed, with no wall-clock assertion to flake.
    #[test]
    fn a_two_megabyte_document_parses_in_linear_time() {
        let long = "é\\\"x\n€😀\t0123456789abcdefgh".repeat(1 << 15);
        assert!(long.len() >= 1 << 20);
        let mut fields = vec![("long".to_string(), Json::str(long))];
        fields.extend((0..50_000).map(|i| (format!("field-{i}"), Json::str(format!("value {i}")))));
        let doc = Json::Obj(fields);
        let text = doc.to_string();
        assert!(text.len() >= 2 << 20, "{} bytes", text.len());
        assert_eq!(parse(&text), Ok(doc));
    }

    /// What `parse(render(x))` returns for `x`: every number is a
    /// [`Json::Num`], non-finite ones were rendered as `null`.
    fn normalise(json: &Json) -> Json {
        match json {
            Json::UInt(n) => Json::Num(*n as f64),
            Json::Num(n) if !n.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(normalise).collect()),
            Json::Obj(fields) => {
                Json::Obj(fields.iter().map(|(k, v)| (k.clone(), normalise(v))).collect())
            }
            other => other.clone(),
        }
    }

    /// Random [`Json`] trees: every variant, nested empties, short strings
    /// over [`JsonTree::ALPHABET`].
    struct JsonTree;

    impl JsonTree {
        /// Every escape the writer emits, more control characters, and
        /// scalars of one to four bytes.
        const ALPHABET: &'static str =
            "aZ0 /\"\\\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}é€\u{fffd}😀\u{10ffff}";

        fn string(rng: &mut TestRng) -> String {
            let alphabet: Vec<char> = Self::ALPHABET.chars().collect();
            (0..rng.below(12))
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                .collect()
        }

        fn tree(rng: &mut TestRng, depth: u32) -> Json {
            // Leaves only at the bottom; containers may be empty anywhere.
            match rng.below(if depth == 0 { 5 } else { 7 }) {
                0 => Json::Null,
                1 => Json::Bool(rng.below(2) == 1),
                // Below 2^53, the range `Json::Num` carries exactly.
                2 => Json::UInt(rng.below(1 << 53) >> rng.below(53)),
                3 => Json::Num(f64::from_bits(rng.next_u64())),
                4 => Json::Str(Self::string(rng)),
                5 => Json::Arr((0..rng.below(4)).map(|_| Self::tree(rng, depth - 1)).collect()),
                _ => Json::Obj(
                    (0..rng.below(4))
                        .map(|_| (Self::string(rng), Self::tree(rng, depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    impl Strategy for JsonTree {
        type Value = Json;

        fn generate(&self, rng: &mut TestRng) -> Json {
            Self::tree(rng, 5)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parsing_inverts_rendering(doc in JsonTree) {
            let text = doc.to_string();
            let parsed = parse(&text);
            prop_assert_eq!(parsed.as_ref(), Ok(&normalise(&doc)), "{}", text);
            // Rendering is a fixed point from there on (what the perf
            // ledger's `exp-grid-warm` checks on the grid dump).
            prop_assert_eq!(parsed.unwrap().to_string(), text);
        }
    }

    #[test]
    fn sweep_dumps_parse_and_carry_the_efficiency_metrics() {
        use crate::cache::SimCache;
        use crate::design_space::SweepOptions;
        use crate::pool::WorkerPool;
        use pim_stm::{MetadataPlacement, StmKind};
        use pim_workloads::Workload;
        let sweep = DesignSpaceSweep::run_with(
            Workload::ArrayB,
            MetadataPlacement::Mram,
            &[StmKind::Norec],
            &[2],
            SweepOptions { scale: 0.05, seed: 9, ..SweepOptions::default() },
            &WorkerPool::default(),
            &SimCache::in_memory(),
        );
        let json = sweeps_to_json(std::slice::from_ref(&sweep));
        let parsed = parse(&json.to_string()).expect("sweep dump must parse");
        let Json::Arr(cells) = parsed else { panic!("dump must be an array") };
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert_eq!(cell.get("workload"), Some(&Json::Str("array-b".into())));
        assert_eq!(cell.get("stm"), Some(&Json::Str("NOrec".into())));
        assert_eq!(cell.get("time_unit"), Some(&Json::Str("cyc".into())));
        assert_eq!(cell.get("seed"), Some(&Json::Num(9.0)));
        assert_eq!(cell.get("record_words"), Some(&Json::Null));
        assert_eq!(cell.get("retry"), Some(&Json::Str("exponential".into())));
        assert_eq!(cell.get("repeat_spread"), Some(&Json::Null), "single runs carry no spread");
        assert!(matches!(cell.get("dma_setups_per_commit"), Some(Json::Num(n)) if *n > 0.0));
        assert!(cell.get("phases").and_then(|p| p.get("Reading")).is_some());
        assert!(cell.get("aborts_by_reason").is_some());
    }

    #[test]
    fn fleet_dumps_parse_and_carry_scaling_skew_and_imbalance() {
        use crate::fleet::{FleetSweep, FleetSweepOptions};
        let sweep = FleetSweep::run(
            &[2, 4],
            FleetSweepOptions { scale: 0.05, thetas: vec![0.0, 1.2], ..Default::default() },
        );
        let json = fleet_to_json(&sweep);
        let parsed = parse(&json.to_string()).expect("fleet dump must parse");
        assert_eq!(parsed.get("mode"), Some(&Json::Str("fleet".into())));
        assert_eq!(parsed.get("routing"), Some(&Json::Str("route-to-owner".into())));
        let Some(Json::Arr(scaling)) = parsed.get("scaling") else {
            panic!("scaling must be an array")
        };
        assert_eq!(scaling.len(), 2);
        assert_eq!(scaling[0].get("n_dpus"), Some(&Json::Num(2.0)));
        assert!(scaling[0].get("imbalance").and_then(|i| i.get("cv_commits")).is_some());
        assert!(scaling[0].get("profile").and_then(|p| p.get("phases")).is_some());
        assert!(scaling[0]
            .get("transfers")
            .and_then(|t| t.get("broadcast"))
            .and_then(|b| b.get("calls"))
            .is_some());
        assert!(scaling[0].get("analytic_total_seconds").is_some());
        let Some(Json::Arr(skew)) = parsed.get("skew") else { panic!("skew must be an array") };
        assert_eq!(skew.len(), 2);
        assert_eq!(skew[0].get("theta"), Some(&Json::Num(0.0)));
        assert_eq!(skew[1].get("n_dpus"), Some(&Json::Num(4.0)), "skew runs the largest fleet");
        // Defaults: the new panels exist but report the features off.
        assert_eq!(parsed.get("rebalance_policy"), Some(&Json::Str("off".into())));
        assert_eq!(parsed.get("overlap"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("repeat"), Some(&Json::Num(1.0)));
        assert_eq!(parsed.get("phases"), Some(&Json::Num(1.0)));
        let pipeline = scaling[0].get("pipeline").expect("pipeline block present");
        assert_eq!(pipeline.get("enabled"), Some(&Json::Bool(false)));
        assert_eq!(pipeline.get("hidden_seconds"), Some(&Json::Num(0.0)));
        let rebalance = scaling[0].get("rebalance").expect("rebalance block present");
        assert_eq!(rebalance.get("policy"), Some(&Json::Str("off".into())));
        assert_eq!(rebalance.get("migrated_keys"), Some(&Json::Num(0.0)));
        let Some(Json::Arr(rounds)) = scaling[0].get("rounds_detail") else {
            panic!("rounds_detail must be an array")
        };
        assert!(!rounds.is_empty());
        assert!(matches!(rounds[0].get("tx_per_sec"), Some(Json::Num(n)) if *n > 0.0));
        assert_eq!(scaling[0].get("repeat_spread"), Some(&Json::Null));
        assert_eq!(skew[0].get("baseline_tx_per_sec"), Some(&Json::Null));
        assert_eq!(skew[0].get("recovered_throughput"), Some(&Json::Null));
    }

    #[test]
    fn rebalancing_overlapped_fleet_dumps_carry_their_panels() {
        use crate::fleet::{FleetSweep, FleetSweepOptions};
        use pim_fleet::RebalancePolicy;
        let sweep = FleetSweep::run(
            &[8],
            FleetSweepOptions {
                scale: 0.1,
                thetas: vec![1.2],
                rebalance: RebalancePolicy::Threshold { max_over_mean: 1.25 },
                overlap: true,
                repeat: 2,
                ..Default::default()
            },
        );
        let json = fleet_to_json(&sweep);
        let parsed = parse(&json.to_string()).expect("fleet dump must parse");
        assert_eq!(parsed.get("rebalance_policy"), Some(&Json::Str("threshold:1.25".into())));
        assert_eq!(parsed.get("overlap"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("repeat"), Some(&Json::Num(2.0)));
        // The uniform scaling run overlaps freely (no migration boundaries).
        let Some(Json::Arr(scaling)) = parsed.get("scaling") else {
            panic!("scaling must be an array")
        };
        let uniform = scaling[0].get("pipeline").expect("pipeline block present");
        assert!(
            matches!(uniform.get("hidden_seconds"), Some(Json::Num(n)) if *n > 0.0),
            "overlap must hide some transfer time on the uniform run"
        );
        let Some(Json::Arr(skew)) = parsed.get("skew") else { panic!("skew must be an array") };
        let point = &skew[0];
        let pipeline = point.get("pipeline").expect("pipeline block present");
        assert_eq!(pipeline.get("enabled"), Some(&Json::Bool(true)));
        let rebalance = point.get("rebalance").expect("rebalance block present");
        assert!(
            matches!(rebalance.get("rebalances"), Some(Json::Num(n)) if *n > 0.0),
            "theta 1.2 on 8 DPUs must trigger at least one recut"
        );
        assert!(matches!(rebalance.get("migration_bytes"), Some(Json::Num(n)) if *n > 0.0));
        assert!(matches!(
            point.get("baseline_tx_per_sec"),
            Some(Json::Num(n)) if *n > 0.0
        ));
        assert!(point.get("recovered_throughput").is_some());
        let spread = point.get("repeat_spread").expect("spread key present");
        assert_eq!(spread.get("runs"), Some(&Json::Num(2.0)));
        assert!(matches!(spread.get("mean_tx_per_sec"), Some(Json::Num(n)) if *n > 0.0));
        let Some(Json::Arr(rounds)) = point.get("rounds_detail") else {
            panic!("rounds_detail must be an array")
        };
        let migrated: f64 = rounds
            .iter()
            .map(|r| match r.get("migrated_keys") {
                Some(Json::Num(n)) => *n,
                _ => 0.0,
            })
            .sum();
        assert!(migrated > 0.0, "per-round detail must show where migrations landed");
    }

    #[test]
    fn grid_dumps_parse_and_carry_the_ranked_cells() {
        use crate::grid::{GridOptions, GridSearch};
        use pim_stm::MetadataPlacement;
        use pim_workloads::Workload;
        let search = GridSearch::run(
            Workload::ArrayB,
            MetadataPlacement::Mram,
            GridOptions { scale: 0.02, tasklets: 2, caps: vec![64], ..GridOptions::default() },
        );
        let json = grid_to_json(&search);
        let parsed = parse(&json.to_string()).expect("grid dump must parse");
        assert_eq!(parsed.get("mode"), Some(&Json::Str("grid".into())));
        assert_eq!(parsed.get("workload"), Some(&Json::Str("array-b".into())));
        let Some(Json::Arr(cells)) = parsed.get("cells") else { panic!("cells must be an array") };
        assert_eq!(cells.len(), 108);
        // A cold search misses once per cell and hits nothing.
        let cache = parsed.get("cache").expect("grid dump must carry the cache panel");
        assert_eq!(cache.get("hits"), Some(&Json::Num(0.0)));
        assert_eq!(cache.get("misses"), Some(&Json::Num(108.0)));
        assert_eq!(cache.get("disk_hits"), Some(&Json::Num(0.0)));
        assert_eq!(cells[0].get("rank"), Some(&Json::Num(1.0)));
        assert_eq!(cells[0].get("slowdown_vs_best"), Some(&Json::Num(1.0)));
        assert!(matches!(cells[0].get("throughput_tx_per_sec"), Some(Json::Num(n)) if *n > 0.0));
        assert!(cells.iter().any(|c| c.get("is_default") == Some(&Json::Bool(true))));
        for pair in cells.windows(2) {
            let (Some(Json::Num(a)), Some(Json::Num(b))) =
                (pair[0].get("rank"), pair[1].get("rank"))
            else {
                panic!("numeric ranks")
            };
            assert!(a < b, "cells must dump in rank order");
        }
    }

    #[test]
    fn repeated_cells_dump_their_spread() {
        use crate::cache::SimCache;
        use crate::design_space::SweepOptions;
        use crate::pool::WorkerPool;
        use pim_stm::{MetadataPlacement, StmKind};
        use pim_workloads::spec::Executor;
        use pim_workloads::Workload;
        let sweep = DesignSpaceSweep::run_with(
            Workload::ArrayB,
            MetadataPlacement::Mram,
            &[StmKind::Norec],
            &[2],
            SweepOptions {
                executor: Executor::Threaded,
                repeat: 2,
                scale: 0.05,
                ..SweepOptions::default()
            },
            &WorkerPool::default(),
            &SimCache::in_memory(),
        );
        let json = sweeps_to_json(std::slice::from_ref(&sweep));
        let parsed = parse(&json.to_string()).expect("sweep dump must parse");
        let Json::Arr(cells) = parsed else { panic!("dump must be an array") };
        let spread = cells[0].get("repeat_spread").expect("spread key present");
        assert_eq!(spread.get("runs"), Some(&Json::Num(2.0)));
        let min = spread.get("min_total_time").expect("min present");
        let max = spread.get("max_total_time").expect("max present");
        let (Json::Num(min), Json::Num(max)) = (min, max) else { panic!("numeric spread") };
        assert!(min <= max);
    }

    fn tiny_service_options() -> crate::service::ServiceSweepOptions {
        crate::service::ServiceSweepOptions {
            rates: vec![50_000.0],
            tasklets: 4,
            scale: 0.05,
            ..crate::service::ServiceSweepOptions::default()
        }
    }

    #[test]
    fn service_dump_parses_with_ordered_quantiles() {
        let sweep = ServiceSweep::run(tiny_service_options(), None).unwrap();
        let parsed = parse(&service_to_json(&sweep).to_string()).expect("dump must parse");
        assert_eq!(parsed.get("mode"), Some(&Json::str("service")));
        let Some(Json::Arr(points)) = parsed.get("points") else { panic!("points array") };
        assert_eq!(points.len(), 1);
        let latency = points[0].get("latency").expect("latency block");
        for component in ["queueing", "service", "sojourn"] {
            let hist = latency.get(component).expect("panel component");
            let quantile = |key: &str| match hist.get(key) {
                Some(&Json::Num(n)) => n,
                other => panic!("{component}.{key} must be numeric, got {other:?}"),
            };
            assert!(quantile("p50") <= quantile("p95"));
            assert!(quantile("p95") <= quantile("p99"));
            assert!(quantile("p99_seconds") >= quantile("p50_seconds"));
        }
        assert_eq!(points[0].get("repeat_spread"), Some(&Json::Null));
    }

    #[test]
    fn service_dump_is_bit_identical_under_one_seed() {
        // The simulator is deterministic under a seed, so the whole latency
        // JSON — every histogram bucket included — must be reproducible
        // byte for byte.
        let first =
            service_to_json(&ServiceSweep::run(tiny_service_options(), None).unwrap()).to_string();
        let second =
            service_to_json(&ServiceSweep::run(tiny_service_options(), None).unwrap()).to_string();
        assert_eq!(first, second, "same seed must reproduce the exact latency dump");
        let other_seed = crate::service::ServiceSweepOptions { seed: 43, ..tiny_service_options() };
        let third = service_to_json(&ServiceSweep::run(other_seed, None).unwrap()).to_string();
        assert_ne!(first, third, "a different seed must shuffle arrivals and payloads");
    }

    #[test]
    fn service_fleet_dump_carries_the_shard_block() {
        use pim_fleet::RebalancePolicy;
        let knobs = crate::service::ServiceFleetKnobs {
            shards: 4,
            rebalance: RebalancePolicy::Off,
            overlap: false,
        };
        let sweep = ServiceSweep::run(tiny_service_options(), Some(knobs)).unwrap();
        let parsed = parse(&service_to_json(&sweep).to_string()).expect("dump must parse");
        let fleet = parsed.get("fleet").expect("fleet block");
        assert_eq!(fleet.get("shards"), Some(&Json::Num(4.0)));
        let Some(Json::Arr(points)) = parsed.get("fleet_points") else { panic!("fleet points") };
        assert_eq!(points.len(), 1);
        let Some(Json::Arr(per_shard)) = points[0].get("per_shard_completed") else {
            panic!("per-shard array")
        };
        assert_eq!(per_shard.len(), 4);
    }
}
