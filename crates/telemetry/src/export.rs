//! Interop exporters: OpenMetrics text exposition for the metrics
//! registry and Chrome trace-event JSON (Perfetto-loadable) for recorded
//! span trees.
//!
//! Both writers are hand-rolled strings — the crate stays
//! zero-dependency — and both are *views* over data the rest of the
//! crate already produces: [`openmetrics`] walks a
//! [`TelemetrySnapshot`], [`chrome_trace`] walks a recorded event list
//! (or, via [`chrome_trace_from_jsonl`], a trace file written earlier).

use crate::events::{Event, Value};
use crate::json::{self, Json};
use crate::snapshot::TelemetrySnapshot;
use crate::trace::{hex, parse_hex};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maps a dotted metric name onto the OpenMetrics charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`, and
/// a leading digit gets a `_` prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok || c.is_ascii_digit() { c } else { '_' });
    }
    out
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("NaN");
    } else if v > 0.0 {
        out.push_str("+Inf");
    } else {
        out.push_str("-Inf");
    }
}

/// Renders the snapshot as an OpenMetrics text exposition: counters as
/// `counter` (with the `_total` sample suffix), gauges as `gauge`, and
/// histogram summaries as `summary` (p50/p95 quantile samples plus
/// `_sum`/`_count`), terminated by the mandatory `# EOF`.
pub fn openmetrics(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let name = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name}_total {v}");
    }
    for (name, v) in &snap.gauges {
        let name = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = write!(out, "{name} ");
        write_f64(&mut out, *v);
        out.push('\n');
    }
    for (name, h) in &snap.histograms {
        let name = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {name} summary");
        for (q, v) in [("0.5", h.p50), ("0.95", h.p95)] {
            let _ = write!(out, "{name}{{quantile=\"{q}\"}} ");
            write_f64(&mut out, v);
            out.push('\n');
        }
        let _ = write!(out, "{name}_sum ");
        write_f64(&mut out, h.total);
        out.push('\n');
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out.push_str("# EOF\n");
    out
}

/// One event flattened to what the Chrome exporter needs: time, ordering,
/// name, owning trace and pre-rendered args.
struct Rec {
    t: f64,
    seq: u64,
    kind: String,
    trace: Option<u64>,
    args_json: String,
}

fn value_json(v: &Value) -> String {
    match v {
        Value::U64(v) => v.to_string(),
        Value::I64(v) => v.to_string(),
        Value::F64(v) if v.is_finite() => v.to_string(),
        Value::F64(_) => "null".to_string(),
        Value::Bool(v) => v.to_string(),
        Value::Str(s) => json::escape(s),
        Value::Hex(id) => format!("\"{}\"", hex(*id)),
    }
}

fn json_value_json(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) if n.is_finite() => n.to_string(),
        Json::Num(_) => "null".to_string(),
        Json::Str(s) => json::escape(s),
        // Nested containers never occur in event fields; render opaquely.
        Json::Arr(_) | Json::Obj(_) => "\"<nested>\"".to_string(),
    }
}

fn rec_from_event(e: &Event) -> Rec {
    let mut trace = None;
    let mut args = String::from("{");
    for (i, (k, v)) in e.fields.iter().enumerate() {
        if *k == "trace" {
            match v {
                Value::Str(s) => trace = parse_hex(s),
                Value::Hex(id) => trace = Some(*id),
                _ => {}
            }
        }
        if i > 0 {
            args.push(',');
        }
        let _ = write!(args, "{}:{}", json::escape(k), value_json(v));
    }
    args.push('}');
    Rec { t: e.t_sim, seq: e.seq, kind: e.kind.to_string(), trace, args_json: args }
}

fn rec_from_json(obj: &Json) -> Rec {
    let mut trace = None;
    let mut args = String::from("{");
    let mut first = true;
    if let Json::Obj(members) = obj {
        for (k, v) in members {
            match k.as_str() {
                "t" | "seq" | "kind" => continue,
                "trace" => trace = v.as_str().and_then(parse_hex),
                _ => {}
            }
            if !first {
                args.push(',');
            }
            first = false;
            let _ = write!(args, "{}:{}", json::escape(k), json_value_json(v));
        }
    }
    args.push('}');
    Rec {
        t: obj.get("t").and_then(Json::as_f64).unwrap_or(0.0),
        seq: obj.get("seq").and_then(Json::as_f64).map(|v| v as u64).unwrap_or(0),
        kind: obj.get("kind").and_then(Json::as_str).unwrap_or("?").to_string(),
        trace,
        args_json: args,
    }
}

/// Chrome trace-event export of a recorded event list: load the result
/// in Perfetto (or `chrome://tracing`) to browse span trees visually.
///
/// Layout: every causal trace becomes its own named track (`tid`), drawn
/// as one complete (`"X"`) slice spanning the chain plus one instant
/// (`"i"`) marker per hop; untraced events share track 0. Timestamps are
/// simulation seconds scaled to microseconds.
pub fn chrome_trace(events: &[Event]) -> String {
    render_chrome(events.iter().map(rec_from_event).collect())
}

/// [`chrome_trace`] over a JSONL trace file's contents (as written by
/// `pb sweep --trace` or a flight-recorder dump).
pub fn chrome_trace_from_jsonl(jsonl: &str) -> Result<String, String> {
    let mut recs = Vec::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        recs.push(rec_from_json(&obj));
    }
    Ok(render_chrome(recs))
}

fn render_chrome(mut recs: Vec<Rec>) -> String {
    recs.sort_by(|a, b| a.t.total_cmp(&b.t).then(a.seq.cmp(&b.seq)));
    // Track ids: 0 for untraced events, then one per trace in id order so
    // the layout is deterministic across thread counts.
    let mut tids: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &recs {
        if let Some(t) = r.trace {
            let next = tids.len() as u64 + 1;
            tids.entry(t).or_insert(next);
        }
    }
    let mut spans: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for r in &recs {
        if let Some(t) = r.trace {
            let e = spans.entry(t).or_insert((r.t, r.t));
            e.0 = e.0.min(r.t);
            e.1 = e.1.max(r.t);
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, s: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&s);
    };
    push(
        &mut out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"pb simulation\"}}"
            .to_string(),
    );
    push(
        &mut out,
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"untraced\"}}"
            .to_string(),
    );
    for (trace, tid) in &tids {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"trace {trace:016x}\"}}}}"
            ),
        );
    }
    for (trace, (start, end)) in &spans {
        let tid = tids[trace];
        // Perfetto hides zero-width slices; floor the duration at 1 µs.
        let dur = ((end - start) * 1e6).max(1.0);
        push(
            &mut out,
            format!(
                "{{\"name\":\"trace {trace:016x}\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{}}}}",
                start * 1e6
            ),
        );
    }
    for r in &recs {
        let tid = r.trace.map_or(0, |t| tids[&t]);
        push(
            &mut out,
            format!(
                "{{\"name\":{},\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"s\":\"t\",\
                 \"args\":{}}}",
                json::escape(&r.kind),
                r.t * 1e6,
                r.args_json
            ),
        );
    }
    out.push_str("\n]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::trace::hex;

    #[test]
    fn sanitizer_maps_onto_the_openmetrics_charset() {
        assert_eq!(sanitize_metric_name("des.queue.occupancy"), "des_queue_occupancy");
        assert_eq!(sanitize_metric_name("fault.retries"), "fault_retries");
        assert_eq!(sanitize_metric_name("7zip"), "_7zip");
        assert_eq!(sanitize_metric_name("a:b_c9"), "a:b_c9");
    }

    #[test]
    fn openmetrics_exposes_every_metric_family() {
        let r = MetricsRegistry::new();
        r.counter("fault.retries").add(20);
        r.gauge("des.queue_depth.peak").set(7.0);
        r.histogram("des.cycle.horizon_s").observe(12.5);
        let text = openmetrics(&r.snapshot());
        assert!(text.contains("# TYPE des_cycle_horizon_s summary"));
        assert!(text.contains("# TYPE des_queue_depth_peak gauge"));
        assert!(text.contains("# TYPE fault_retries counter"));
        assert!(text.contains("fault_retries_total 20"));
        assert!(text.contains("des_queue_depth_peak 7"));
        assert!(text.contains("des_cycle_horizon_s{quantile=\"0.5\"}"));
        assert!(text.contains("des_cycle_horizon_s_sum 12.5"));
        assert!(text.contains("des_cycle_horizon_s_count 1"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn openmetrics_of_empty_snapshot_is_just_eof() {
        assert_eq!(openmetrics(&TelemetrySnapshot::default()), "# EOF\n");
    }

    fn traced_event(t: f64, seq: u64, kind: &'static str, trace: u64) -> Event {
        Event {
            t_sim: t,
            seq,
            kind,
            fields: vec![("trace", hex(trace).into()), ("client", 3u64.into())],
        }
    }

    #[test]
    fn chrome_export_is_valid_json_with_tracks_and_slices() {
        let trace = 0xABCDu64;
        let events = vec![
            traced_event(0.0, 0, "trace.sample", trace),
            traced_event(30.0, 1, "fault.fallback", trace),
            Event { t_sim: 5.0, seq: 2, kind: "des.cycle_done", fields: vec![] },
        ];
        let text = chrome_trace(&events);
        let parsed = json::parse(&text).expect("valid JSON");
        let Some(Json::Arr(items)) = parsed.get("traceEvents") else {
            panic!("traceEvents array missing");
        };
        // 3 metadata (process + untraced + 1 trace track), 1 X slice, 3 instants.
        assert_eq!(items.len(), 7);
        let x = items
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("one complete slice per trace");
        assert_eq!(x.get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(x.get("dur").and_then(Json::as_f64), Some(30.0 * 1e6));
        let untraced = items
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("des.cycle_done"))
            .unwrap();
        assert_eq!(untraced.get("tid").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn chrome_export_round_trips_through_jsonl() {
        let trace = 0x77u64;
        let events =
            vec![traced_event(1.0, 0, "trace.sample", trace), traced_event(2.0, 1, "x", trace)];
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let direct = chrome_trace(&events);
        let via_file = chrome_trace_from_jsonl(&jsonl).expect("parses");
        assert_eq!(direct, via_file);
        assert!(json::parse(&via_file).is_ok());
    }

    #[test]
    fn jsonl_errors_name_the_line() {
        let err = chrome_trace_from_jsonl("{\"t\":0}\n{bad").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
