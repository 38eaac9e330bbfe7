//! Metric registry: counters, gauges, fixed-bucket histograms.
//!
//! Recording goes through interior-mutable [`Cell`]s so the hot path is
//! a load+store with no locking — each closed-loop runner (and each
//! sweep cell) owns its own registry, and aggregation happens on
//! immutable [`Snapshot`]s after the fact. Snapshot [`merge`]
//! (`Snapshot::merge`) is the cross-worker combiner: counters and
//! histogram buckets add, gauges resolve by a total order on
//! `(updates, value bits)`, so integer-valued state merges to the same
//! aggregate in any order. Callers that need *bitwise* determinism for
//! floating-point sums (the sweep engine) merge per-cell snapshots in
//! grid order, which is independent of thread count by construction.
//!
//! [`merge`]: Snapshot::merge

use crate::TelemetryError;
use std::cell::Cell;
use std::fmt::Write as _;

/// Handle to a registered counter (cheap `Copy` index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone)]
struct Meta {
    name: String,
    labels: Vec<(String, String)>,
}

impl Meta {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        Meta {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Orders this series against `(name, labels)` exactly as
    /// [`key_cmp`] orders two registered ones.
    fn cmp_key(&self, name: &str, labels: &[(&str, &str)]) -> std::cmp::Ordering {
        self.name.as_str().cmp(name).then_with(|| {
            self.labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .cmp(labels.iter().copied())
        })
    }
}

/// One metric kind's series: registration metadata and recording cells
/// indexed by handle, plus the handles sorted by `(name, labels)`.
/// The order is kept up to date on the cold registration path, so
/// rendering and snapshotting walk it without sorting.
#[derive(Debug, Clone)]
struct Series<T> {
    meta: Vec<Meta>,
    cells: Vec<T>,
    order: Vec<usize>,
}

impl<T> Default for Series<T> {
    fn default() -> Self {
        Series {
            meta: Vec::new(),
            cells: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl<T> Series<T> {
    /// The handle of `(name, labels)`, registering it with a fresh
    /// `cell()` on first sight.
    fn register(&mut self, name: &str, labels: &[(&str, &str)], cell: impl FnOnce() -> T) -> usize {
        let meta = &self.meta;
        match self
            .order
            .binary_search_by(|&i| meta[i].cmp_key(name, labels))
        {
            Ok(pos) => self.order[pos],
            Err(pos) => {
                let id = self.cells.len();
                self.order.insert(pos, id);
                self.meta.push(Meta::new(name, labels));
                self.cells.push(cell());
                id
            }
        }
    }

    /// Every series in `(name, labels)` order.
    fn sorted(&self) -> impl Iterator<Item = (&Meta, &T)> {
        self.order.iter().map(|&i| (&self.meta[i], &self.cells[i]))
    }
}

#[derive(Debug, Clone)]
struct HistogramCells {
    /// Upper bucket edges, strictly increasing; an implicit `+Inf`
    /// overflow bucket follows the last edge.
    edges: Vec<f64>,
    counts: Vec<Cell<u64>>,
    sum: Cell<f64>,
    count: Cell<u64>,
}

/// A registry of counters, gauges, and fixed-bucket histograms.
///
/// Registration (`counter`/`gauge`/`histogram`) is cold and idempotent:
/// re-registering the same name+labels returns the existing handle.
/// Recording (`inc`/`set`/`observe`) takes `&self` and is a handful of
/// instructions — cheap enough for the per-second runner hot path.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Series<Cell<u64>>,
    /// (update count, value) per gauge.
    gauges: Series<Cell<(u64, f64)>>,
    histograms: Series<HistogramCells>,
    /// `metric name → help text`, sorted by name, rendered as `# HELP`
    /// exposition lines.
    help: Vec<(String, String)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or look up) a counter.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        CounterId(self.counters.register(name, labels, || Cell::new(0)))
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        GaugeId(self.gauges.register(name, labels, || Cell::new((0, 0.0))))
    }

    /// Register (or look up) a histogram with the given upper bucket
    /// edges (finite, strictly increasing; an implicit `+Inf` overflow
    /// bucket is appended).
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], edges: &[f64]) -> HistogramId {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]) && edges.iter().all(|e| e.is_finite()),
            "histogram edges must be finite and strictly increasing"
        );
        HistogramId(self.histograms.register(name, labels, || HistogramCells {
            edges: edges.to_vec(),
            counts: vec![Cell::new(0); edges.len() + 1],
            sum: Cell::new(0.0),
            count: Cell::new(0),
        }))
    }

    /// Attach (or replace) the help text for a metric name, rendered as
    /// a `# HELP` line above the metric's `# TYPE` header in the
    /// Prometheus exposition. Metrics without registered help render no
    /// `# HELP` line, so callers that never use this see byte-identical
    /// output.
    pub fn set_help(&mut self, name: &str, help: &str) {
        match self.help.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.help[i].1 = help.to_string(),
            Err(i) => self.help.insert(i, (name.to_string(), help.to_string())),
        }
    }

    /// Increment a counter.
    #[inline]
    pub fn inc(&self, id: CounterId, by: u64) {
        let c = &self.counters.cells[id.0];
        c.set(c.get().wrapping_add(by));
    }

    /// Set a gauge to `value` (bumps its update count).
    #[inline]
    pub fn set(&self, id: GaugeId, value: f64) {
        let g = &self.gauges.cells[id.0];
        let (updates, _) = g.get();
        g.set((updates + 1, value));
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&self, id: HistogramId, value: f64) {
        let h = &self.histograms.cells[id.0];
        // Small fixed bucket sets (≤ ~16 edges): a linear scan beats a
        // branchy binary search at this size and keeps the record path
        // allocation- and lock-free.
        let mut bucket = h.edges.len();
        for (i, e) in h.edges.iter().enumerate() {
            if value <= *e {
                bucket = i;
                break;
            }
        }
        let c = &h.counts[bucket];
        c.set(c.get() + 1);
        h.sum.set(h.sum.get() + value);
        h.count.set(h.count.get() + 1);
    }

    /// Freeze the registry into an immutable, mergeable snapshot with
    /// entries sorted by `(name, labels)`.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .sorted()
                .map(|(m, c)| CounterSnap {
                    name: m.name.clone(),
                    labels: m.labels.clone(),
                    value: c.get(),
                })
                .collect(),
            gauges: self
                .gauges
                .sorted()
                .map(|(m, g)| {
                    let (updates, value) = g.get();
                    GaugeSnap {
                        name: m.name.clone(),
                        labels: m.labels.clone(),
                        updates,
                        value,
                    }
                })
                .collect(),
            histograms: self
                .histograms
                .sorted()
                .map(|(m, h)| HistogramSnap {
                    name: m.name.clone(),
                    labels: m.labels.clone(),
                    edges: h.edges.clone(),
                    bucket_counts: h.counts.iter().map(Cell::get).collect(),
                    sum: h.sum.get(),
                    count: h.count.get(),
                })
                .collect(),
            help: self.help.clone(),
        }
    }

    /// Append the Prometheus text exposition of the live values to
    /// `out` — byte-identical to `self.snapshot().to_prometheus_text()`
    /// without building the snapshot. Allocates nothing beyond growing
    /// `out`.
    pub fn write_prometheus_text(&self, out: &mut String) {
        write_exposition(
            out,
            &self.help,
            self.counters.sorted().map(|(m, c)| Row {
                name: &m.name,
                labels: &m.labels,
                value: c.get(),
            }),
            self.gauges.sorted().map(|(m, g)| Row {
                name: &m.name,
                labels: &m.labels,
                value: g.get().1,
            }),
            self.histograms.sorted().map(|(m, h)| Row {
                name: &m.name,
                labels: &m.labels,
                value: Hist {
                    edges: &h.edges,
                    counts: h.counts.iter().map(Cell::get),
                    sum: h.sum.get(),
                    count: h.count.get(),
                },
            }),
        );
    }
}

fn key_cmp(
    an: &str,
    al: &[(String, String)],
    bn: &str,
    bl: &[(String, String)],
) -> std::cmp::Ordering {
    an.cmp(bn).then_with(|| al.cmp(bl))
}

/// A frozen counter value.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnap {
    /// Metric name.
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Accumulated count.
    pub value: u64,
}

/// A frozen gauge value.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnap {
    /// Metric name.
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// How many times the gauge was set (merge tie-breaker).
    pub updates: u64,
    /// Last value set.
    pub value: f64,
}

/// A frozen histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnap {
    /// Metric name.
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Upper bucket edges (the `+Inf` overflow bucket is implicit).
    pub edges: Vec<f64>,
    /// Per-bucket counts; `len() == edges.len() + 1`.
    pub bucket_counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Total observation count.
    pub count: u64,
}

impl HistogramSnap {
    /// Estimate the `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation
    /// inside the bucket containing the target rank (the classic
    /// Prometheus `histogram_quantile` scheme). Returns `None` when the
    /// histogram is empty; the overflow bucket clamps to its lower edge.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.bucket_counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if (cum as f64) >= target && c > 0 {
                let lo = if i == 0 { 0.0 } else { self.edges[i - 1] };
                if i == self.edges.len() {
                    return Some(lo);
                }
                let hi = self.edges[i];
                let frac = (target - prev as f64) / c as f64;
                return Some(lo + (hi - lo) * frac.clamp(0.0, 1.0));
            }
        }
        Some(*self.edges.last().unwrap_or(&0.0))
    }
}

/// An immutable, mergeable view of a [`Registry`]'s state.
///
/// Entries are sorted by `(name, labels)`, so equal registry states
/// produce equal snapshots and snapshot equality is meaningful in
/// bit-identity tests (sweep cells across thread counts).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counters, sorted by key.
    pub counters: Vec<CounterSnap>,
    /// Gauges, sorted by key.
    pub gauges: Vec<GaugeSnap>,
    /// Histograms, sorted by key.
    pub histograms: Vec<HistogramSnap>,
    /// Registered `metric name → help text` pairs, sorted by name.
    pub help: Vec<(String, String)>,
}

impl Snapshot {
    /// Fold `other` into `self`.
    ///
    /// Counters and histogram buckets add; gauges resolve to the entry
    /// with the lexicographically largest `(updates, value bits)` pair —
    /// a total order, so gauge merging is commutative and associative.
    /// Histogram `sum` uses float addition, which is exact (hence
    /// order-independent) for dyadic-rational observations; callers
    /// needing bitwise determinism on arbitrary floats merge in a fixed
    /// order (the sweep merges per-cell snapshots in grid order).
    pub fn merge(&mut self, other: &Snapshot) -> Result<(), TelemetryError> {
        for c in &other.counters {
            match self
                .counters
                .binary_search_by(|probe| key_cmp(&probe.name, &probe.labels, &c.name, &c.labels))
            {
                Ok(i) => self.counters[i].value += c.value,
                Err(i) => self.counters.insert(i, c.clone()),
            }
        }
        for g in &other.gauges {
            match self
                .gauges
                .binary_search_by(|probe| key_cmp(&probe.name, &probe.labels, &g.name, &g.labels))
            {
                Ok(i) => {
                    let mine = &mut self.gauges[i];
                    if (g.updates, g.value.to_bits()) > (mine.updates, mine.value.to_bits()) {
                        mine.updates = g.updates;
                        mine.value = g.value;
                    }
                }
                Err(i) => self.gauges.insert(i, g.clone()),
            }
        }
        for h in &other.histograms {
            match self
                .histograms
                .binary_search_by(|probe| key_cmp(&probe.name, &probe.labels, &h.name, &h.labels))
            {
                Ok(i) => {
                    let mine = &mut self.histograms[i];
                    if mine.edges != h.edges {
                        return Err(TelemetryError::MergeShapeMismatch(series_key(
                            &h.name, &h.labels,
                        )));
                    }
                    for (a, b) in mine.bucket_counts.iter_mut().zip(&h.bucket_counts) {
                        *a += b;
                    }
                    mine.sum += h.sum;
                    mine.count += h.count;
                }
                Err(i) => self.histograms.insert(i, h.clone()),
            }
        }
        // Help is metadata: union, first writer wins on conflicts (all
        // writers register identical text in practice).
        for (name, text) in &other.help {
            if !self.help.iter().any(|(n, _)| n == name) {
                let i = self.help.partition_point(|(n, _)| n < name);
                self.help.insert(i, (name.clone(), text.clone()));
            }
        }
        Ok(())
    }

    /// Look up a counter's value by name and labels.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| meta_matches(&c.name, &c.labels, name, labels))
            .map(|c| c.value)
    }

    /// Look up a gauge's value by name and labels.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| meta_matches(&g.name, &g.labels, name, labels))
            .map(|g| g.value)
    }

    /// Look up a histogram by name and labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnap> {
        self.histograms
            .iter()
            .find(|h| meta_matches(&h.name, &h.labels, name, labels))
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render in the Prometheus text exposition format (0.0.4):
    /// `# TYPE` headers, cumulative `_bucket{le=...}` series with a
    /// `+Inf` terminator, `_sum`/`_count` companions. Output is fully
    /// determined by the snapshot contents.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        write_exposition(
            &mut out,
            &self.help,
            self.counters.iter().map(|c| Row {
                name: &c.name,
                labels: &c.labels,
                value: c.value,
            }),
            self.gauges.iter().map(|g| Row {
                name: &g.name,
                labels: &g.labels,
                value: g.value,
            }),
            self.histograms.iter().map(|h| Row {
                name: &h.name,
                labels: &h.labels,
                value: Hist {
                    edges: &h.edges,
                    counts: h.bucket_counts.iter().copied(),
                    sum: h.sum,
                    count: h.count,
                },
            }),
        );
        out
    }

    /// Render a human-readable report table: one section per metric
    /// kind, aligned columns, histogram rows with count/mean/p50/p99.
    pub fn to_report(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters");
            let width = self
                .counters
                .iter()
                .map(|c| series_key(&c.name, &c.labels).len())
                .max()
                .unwrap_or(0);
            for c in &self.counters {
                let key = series_key(&c.name, &c.labels);
                let _ = writeln!(out, "  {key:<width$}  {}", c.value);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges");
            let width = self
                .gauges
                .iter()
                .map(|g| series_key(&g.name, &g.labels).len())
                .max()
                .unwrap_or(0);
            for g in &self.gauges {
                let key = series_key(&g.name, &g.labels);
                let _ = writeln!(out, "  {key:<width$}  {:.4}", g.value);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms");
            let width = self
                .histograms
                .iter()
                .map(|h| series_key(&h.name, &h.labels).len())
                .max()
                .unwrap_or(0);
            for h in &self.histograms {
                let key = series_key(&h.name, &h.labels);
                let mean = if h.count > 0 {
                    h.sum / h.count as f64
                } else {
                    0.0
                };
                let p50 = h.quantile(0.50).unwrap_or(0.0);
                let p99 = h.quantile(0.99).unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "  {key:<width$}  count={} mean={mean:.4} p50~{p50:.4} p99~{p99:.4}",
                    h.count
                );
            }
        }
        out
    }
}

fn meta_matches(name: &str, labels: &[(String, String)], n: &str, l: &[(&str, &str)]) -> bool {
    name == n
        && labels.len() == l.len()
        && labels
            .iter()
            .zip(l)
            .all(|((k, v), (k2, v2))| k == k2 && v == v2)
}

/// One borrowed series row, fed to [`write_exposition`] in
/// `(name, labels)` order.
struct Row<'a, V> {
    name: &'a str,
    labels: &'a [(String, String)],
    value: V,
}

/// A histogram's borrowed state; `counts` yields the per-bucket
/// (non-cumulative) counts, overflow bucket last.
struct Hist<'a, C> {
    edges: &'a [f64],
    counts: C,
    sum: f64,
    count: u64,
}

/// The one Prometheus text-format (0.0.4) writer: streams already-sorted
/// rows straight into `out`, escaping and formatting in place. `help`
/// is sorted by name.
fn write_exposition<'a, C: Iterator<Item = u64>>(
    out: &mut String,
    help: &[(String, String)],
    counters: impl Iterator<Item = Row<'a, u64>>,
    gauges: impl Iterator<Item = Row<'a, f64>>,
    histograms: impl Iterator<Item = Row<'a, Hist<'a, C>>>,
) {
    let mut last = "";
    for r in counters {
        write_family_header(out, help, &mut last, r.name, "counter");
        write_series(out, r.name, "", r.labels, None);
        let _ = writeln!(out, " {}", r.value);
    }
    last = "";
    for r in gauges {
        write_family_header(out, help, &mut last, r.name, "gauge");
        write_series(out, r.name, "", r.labels, None);
        out.push(' ');
        write_sample_f64(out, r.value);
        out.push('\n');
    }
    last = "";
    for r in histograms {
        write_family_header(out, help, &mut last, r.name, "histogram");
        let h = r.value;
        let mut cum = 0u64;
        for (i, c) in h.counts.enumerate() {
            cum += c;
            let le = h.edges.get(i).copied().unwrap_or(f64::INFINITY);
            write_series(out, r.name, "_bucket", r.labels, Some(le));
            let _ = writeln!(out, " {cum}");
        }
        write_series(out, r.name, "_sum", r.labels, None);
        out.push(' ');
        write_sample_f64(out, h.sum);
        out.push('\n');
        write_series(out, r.name, "_count", r.labels, None);
        let _ = writeln!(out, " {}", h.count);
    }
}

/// `# HELP` (when registered) and `# TYPE` lines, once per metric name.
fn write_family_header<'a>(
    out: &mut String,
    help: &[(String, String)],
    last: &mut &'a str,
    name: &'a str,
    kind: &str,
) {
    if name == *last {
        return;
    }
    *last = name;
    if let Ok(i) = help.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
        let _ = write!(out, "# HELP {name} ");
        write_escaped(out, &help[i].1, false);
        out.push('\n');
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// `name` + `suffix` + `{labels}`, with an `le` bucket label last when
/// given; no braces when there are no labels at all.
fn write_series(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    le: Option<f64>,
) {
    out.push_str(name);
    out.push_str(suffix);
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        write_escaped(out, v, true);
        out.push('"');
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        out.push_str("le=\"");
        write_sample_f64(out, le);
        out.push('"');
    }
    out.push('}');
}

/// `name{labels}` as one string: the key in reports and errors.
fn series_key(name: &str, labels: &[(String, String)]) -> String {
    let mut key = String::new();
    write_series(&mut key, name, "", labels, None);
    key
}

/// Exposition-format escaping: backslash and line-feed always, the
/// double quote only inside label values (it is legal in help text).
fn write_escaped(out: &mut String, s: &str, label_value: bool) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'"' if label_value => "\\\"",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `i` is always a char boundary.
        out.push_str(&s[start..i]);
        out.push_str(esc);
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// A sample value or bucket edge: the shared integral-float rule, with
/// the format's own `+Inf`/`-Inf`/`NaN` spellings.
fn write_sample_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else {
        crate::write_f64(out, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // -- the pre-streaming renderer, kept as the equivalence oracle ----

    /// Today's exposition as the string-building renderer produced it:
    /// sort a snapshot's rows by key, then render each line with
    /// `format!`. The streaming writer must match it byte for byte on
    /// finite values.
    fn oracle_prometheus_text(snap: &Snapshot) -> String {
        let mut s = snap.clone();
        s.counters
            .sort_by(|a, b| key_cmp(&a.name, &a.labels, &b.name, &b.labels));
        s.gauges
            .sort_by(|a, b| key_cmp(&a.name, &a.labels, &b.name, &b.labels));
        s.histograms
            .sort_by(|a, b| key_cmp(&a.name, &a.labels, &b.name, &b.labels));
        s.help.sort_by(|a, b| a.0.cmp(&b.0));
        let write_help = |out: &mut String, name: &str| {
            if let Ok(i) = s.help.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(&s.help[i].1));
            }
        };
        let mut out = String::new();
        let mut last_name = "";
        for c in &s.counters {
            if c.name != last_name {
                write_help(&mut out, &c.name);
                let _ = writeln!(out, "# TYPE {} counter", c.name);
                last_name = &c.name;
            }
            let _ = writeln!(out, "{}{} {}", c.name, render_labels(&c.labels), c.value);
        }
        last_name = "";
        for g in &s.gauges {
            if g.name != last_name {
                write_help(&mut out, &g.name);
                let _ = writeln!(out, "# TYPE {} gauge", g.name);
                last_name = &g.name;
            }
            let _ = writeln!(
                out,
                "{}{} {}",
                g.name,
                render_labels(&g.labels),
                fmt_f64(g.value)
            );
        }
        last_name = "";
        for h in &s.histograms {
            if h.name != last_name {
                write_help(&mut out, &h.name);
                let _ = writeln!(out, "# TYPE {} histogram", h.name);
                last_name = &h.name;
            }
            let mut cum = 0u64;
            for (i, &c) in h.bucket_counts.iter().enumerate() {
                cum += c;
                let le = if i == h.edges.len() {
                    "+Inf".to_string()
                } else {
                    fmt_f64(h.edges[i])
                };
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    h.name,
                    render_labels_with(&h.labels, "le", &le),
                    cum
                );
            }
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                h.name,
                render_labels(&h.labels),
                fmt_f64(h.sum)
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                h.name,
                render_labels(&h.labels),
                h.count
            );
        }
        out
    }

    fn render_labels(labels: &[(String, String)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let body: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    fn render_labels_with(labels: &[(String, String)], extra_k: &str, extra_v: &str) -> String {
        let mut body: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        body.push(format!("{extra_k}=\"{}\"", escape_label(extra_v)));
        format!("{{{}}}", body.join(","))
    }

    fn escape_label(v: &str) -> String {
        v.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    }

    fn escape_help(v: &str) -> String {
        v.replace('\\', "\\\\").replace('\n', "\\n")
    }

    fn fmt_f64(v: f64) -> String {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    }

    // -- generated registries -------------------------------------------

    /// Name/label fragments: exposition-legal characters plus the three
    /// escaped ones and non-ASCII text.
    const PIECES: [&str; 12] = [
        "a", "z_", ":", "Q9", "_", "\\", "\"", "\n", "é", "∞", " ", "le",
    ];

    /// Finite sample values that exercise every branch of the float
    /// rule: integral, fractional, negative, signed zero, huge, tiny.
    const FINITE: [f64; 10] = [
        0.0,
        -0.0,
        1.0,
        898.5,
        -3.25,
        1e15,
        -2.5e17,
        1e-9,
        0.1,
        123_456_789.0,
    ];

    /// Decodes a proptest tape into registry contents, one series per
    /// 8 draws.
    struct Tape<'a> {
        draws: &'a [u32],
        at: usize,
    }

    impl Tape<'_> {
        fn next(&mut self, n: usize) -> usize {
            let d = self.draws[self.at % self.draws.len()];
            self.at += 1;
            d as usize % n
        }

        fn text(&mut self, max_pieces: usize) -> String {
            let n = self.next(max_pieces + 1);
            (0..n).map(|_| PIECES[self.next(PIECES.len())]).collect()
        }
    }

    /// One series to register: kind (0 counter, 1 gauge, 2 histogram),
    /// name, labels, histogram edges.
    type Spec = (usize, String, Vec<(String, String)>, Vec<f64>);

    fn specs(draws: &[u32]) -> Vec<Spec> {
        let mut tape = Tape { draws, at: 0 };
        (0..draws.len() / 8)
            .map(|_| {
                let kind = tape.next(3);
                // Few distinct names so families share headers.
                let name = format!("m{}{}", tape.next(4), tape.text(2));
                let labels = (0..tape.next(3))
                    .map(|i| (format!("k{i}{}", tape.text(1)), tape.text(4)))
                    .collect();
                let edges = (0..tape.next(4))
                    .map(|i| FINITE[i + 6] + i as f64)
                    .collect();
                (kind, name, labels, edges)
            })
            .collect()
    }

    /// Registers `specs` in the order given by `order`, then records a
    /// deterministic value per spec from `values` (by spec index, so
    /// two registration orders end in the same state).
    fn build(specs: &[Spec], order: &[usize], values: &[f64]) -> Registry {
        let mut reg = Registry::new();
        let mut ids = vec![None; specs.len()];
        for &i in order {
            let (kind, name, labels, edges) = &specs[i];
            let l: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            ids[i] = Some(match kind {
                0 => (0, reg.counter(name, &l).0),
                1 => (1, reg.gauge(name, &l).0),
                _ => (2, reg.histogram(name, &l, edges).0),
            });
            if i % 3 == 0 {
                // Help text is a function of the name alone, so the
                // last-writer-wins replace is order-independent.
                reg.set_help(name, &format!("{name} \\ \"help\"\n{}", name.len()));
            }
        }
        for (i, id) in ids.iter().enumerate() {
            let v = values[i % values.len()];
            match id.expect("every spec registered") {
                (0, c) => reg.inc(CounterId(c), (v.abs() % 1e6) as u64),
                (1, g) => reg.set(GaugeId(g), v),
                (_, h) => {
                    reg.observe(HistogramId(h), v);
                    reg.observe(HistogramId(h), values[(i + 1) % values.len()]);
                }
            }
        }
        reg
    }

    fn live_text(reg: &Registry) -> String {
        let mut out = String::new();
        reg.write_prometheus_text(&mut out);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The streaming writer reproduces the string-building renderer
        /// byte for byte on finite values, for any names, escaped label
        /// values and registration order — through both feeders.
        #[test]
        fn streaming_writer_matches_the_oracle(
            draws in prop::collection::vec(0u32..1_000_000, 8..160),
            picks in prop::collection::vec(0usize..FINITE.len(), 1..12),
            rotate in 0usize..64,
        ) {
            let specs = specs(&draws);
            let values: Vec<f64> = picks.iter().map(|&p| FINITE[p]).collect();
            let forward: Vec<usize> = (0..specs.len()).collect();
            let mut shuffled = forward.clone();
            shuffled.reverse();
            let k = rotate % shuffled.len().max(1);
            shuffled.rotate_left(k);
            let a = build(&specs, &forward, &values);
            let b = build(&specs, &shuffled, &values);
            let oracle = oracle_prometheus_text(&a.snapshot());
            prop_assert_eq!(&a.snapshot().to_prometheus_text(), &oracle);
            prop_assert_eq!(&live_text(&a), &oracle);
            prop_assert_eq!(&live_text(&b), &oracle);
        }

        /// Rendering the live registry equals rendering its snapshot,
        /// non-finite values included.
        #[test]
        fn live_render_matches_snapshot_render(
            draws in prop::collection::vec(0u32..1_000_000, 8..160),
            raw in prop::collection::vec(-1e6..1e6f64, 1..12),
            specials in prop::collection::vec(0usize..6, 1..12),
        ) {
            let specs = specs(&draws);
            let values: Vec<f64> = raw
                .iter()
                .zip(specials.iter().cycle())
                .map(|(&v, &s)| match s {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    2 => f64::NAN,
                    _ => v,
                })
                .collect();
            let order: Vec<usize> = (0..specs.len()).rev().collect();
            let reg = build(&specs, &order, &values);
            prop_assert_eq!(live_text(&reg), reg.snapshot().to_prometheus_text());
        }
    }

    /// Text format 0.0.4 spells non-finite samples `+Inf`, `-Inf` and
    /// `NaN` (Rust's `inf`/`NaN` would not parse).
    #[test]
    fn non_finite_samples_use_exposition_spellings() {
        let mut reg = Registry::new();
        let pos = reg.gauge("g", &[("s", "pos")]);
        let neg = reg.gauge("g", &[("s", "neg")]);
        let nan = reg.gauge("g", &[("s", "nan")]);
        let h = reg.histogram("h", &[], &[1.0]);
        reg.set(pos, f64::INFINITY);
        reg.set(neg, f64::NEG_INFINITY);
        reg.set(nan, f64::NAN);
        reg.observe(h, 0.5);
        reg.observe(h, f64::INFINITY);
        let text = live_text(&reg);
        assert_eq!(text, reg.snapshot().to_prometheus_text());
        for line in [
            "g{s=\"neg\"} -Inf",
            "g{s=\"pos\"} +Inf",
            "g{s=\"nan\"} NaN",
            "h_bucket{le=\"1\"} 1",
            "h_bucket{le=\"+Inf\"} 2",
            "h_sum +Inf",
            "h_count 2",
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing `{line}` in:\n{text}"
            );
        }
        assert!(!text.contains("inf"), "Rust spelling leaked:\n{text}");
    }

    #[test]
    fn registration_is_idempotent() {
        let mut reg = Registry::new();
        let a = reg.counter("hits", &[("device", "gpu0")]);
        let b = reg.counter("hits", &[("device", "gpu0")]);
        let c = reg.counter("hits", &[("device", "gpu1")]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        reg.inc(a, 2);
        reg.inc(b, 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("hits", &[("device", "gpu0")]), Some(5));
        assert_eq!(snap.counter_value("hits", &[("device", "gpu1")]), Some(0));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut reg = Registry::new();
        let h = reg.histogram("lat", &[], &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 10.0] {
            reg.observe(h, v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lat", &[]).unwrap();
        assert_eq!(hs.bucket_counts, vec![1, 2, 1, 1]);
        assert_eq!(hs.count, 5);
        assert!((hs.sum - 16.5).abs() < 1e-12);
        // p100 lands in the overflow bucket, which clamps to its lower edge.
        assert_eq!(hs.quantile(1.0), Some(4.0));
        assert!(hs.quantile(0.5).unwrap() <= 2.0);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        for reg in [&mut a, &mut b] {
            let c = reg.counter("n", &[]);
            let h = reg.histogram("lat", &[], &[1.0]);
            reg.inc(c, 1);
            reg.observe(h, 0.5);
        }
        let extra = b.counter("only_b", &[]);
        b.inc(extra, 7);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot()).unwrap();
        assert_eq!(snap.counter_value("n", &[]), Some(2));
        assert_eq!(snap.counter_value("only_b", &[]), Some(7));
        assert_eq!(snap.histogram("lat", &[]).unwrap().count, 2);
    }

    #[test]
    fn merge_rejects_mismatched_edges() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.histogram("lat", &[], &[1.0]);
        b.histogram("lat", &[], &[2.0]);
        let mut snap = a.snapshot();
        assert!(snap.merge(&b.snapshot()).is_err());
    }

    #[test]
    fn gauge_merge_is_a_total_order() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        let ga = a.gauge("power", &[]);
        let gb = b.gauge("power", &[]);
        a.set(ga, 100.0);
        b.set(gb, 50.0);
        b.set(gb, 60.0); // more updates wins regardless of value
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot()).unwrap();
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot()).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.gauge_value("power", &[]), Some(60.0));
    }

    /// Pins label-value escaping: backslash, double-quote, and newline
    /// must survive a scrape round-trip per the exposition format 0.0.4.
    #[test]
    fn prometheus_label_values_are_escaped() {
        let mut reg = Registry::new();
        let c = reg.counter("events_total", &[("path", "C:\\tmp\\\"run\"\nnext")]);
        reg.inc(c, 1);
        let text = reg.snapshot().to_prometheus_text();
        assert!(
            text.contains("events_total{path=\"C:\\\\tmp\\\\\\\"run\\\"\\nnext\"} 1"),
            "unexpected exposition: {text}"
        );
        // The physical line must not be broken by the raw newline.
        assert_eq!(text.lines().count(), 2, "raw newline leaked: {text}");
    }

    /// Pins `# HELP` rendering: emitted above `# TYPE`, escaped
    /// (backslash, newline), and only for metrics that registered help.
    #[test]
    fn prometheus_help_lines() {
        let mut reg = Registry::new();
        let c = reg.counter("requests_total", &[("tier", "0")]);
        let g = reg.gauge("power_watts", &[]);
        reg.inc(c, 4);
        reg.set(g, 898.5);
        reg.set_help("requests_total", "Requests served\nsince start \\ total");
        let text = reg.snapshot().to_prometheus_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "# HELP requests_total Requests served\\nsince start \\\\ total"
        );
        assert_eq!(lines[1], "# TYPE requests_total counter");
        // No help registered for the gauge: no # HELP line for it.
        assert!(!text.contains("# HELP power_watts"));
        assert!(text.contains("# TYPE power_watts gauge"));
        // Help survives snapshot merging (union, first writer wins).
        let mut merged = reg.snapshot();
        let mut other = Registry::new();
        let oc = other.counter("requests_total", &[("tier", "0")]);
        other.inc(oc, 1);
        other.set_help("requests_total", "conflicting text loses");
        other.set_help("power_watts", "Server power (W)");
        merged.merge(&other.snapshot()).unwrap();
        let mtext = merged.to_prometheus_text();
        assert!(mtext.contains("# HELP requests_total Requests served\\n"));
        assert!(mtext.contains("# HELP power_watts Server power (W)"));
    }

    #[test]
    fn prometheus_text_shape() {
        let mut reg = Registry::new();
        let c = reg.counter("requests_total", &[("tier", "0")]);
        let h = reg.histogram("latency_s", &[], &[0.5, 1.0]);
        reg.inc(c, 4);
        reg.observe(h, 0.25);
        reg.observe(h, 2.0);
        let text = reg.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total{tier=\"0\"} 4"));
        assert!(text.contains("latency_s_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("latency_s_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("latency_s_sum 2.25"));
        assert!(text.contains("latency_s_count 2"));
    }
}
