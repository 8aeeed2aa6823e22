//! Spans recorded around the benchmark's calls into the crates.
//!
//! The benchmark adds no tracing to the program. Each benchmark span wraps
//! one call it makes into a crate's public API. Where that API already
//! takes a [`Recorder`] (`MappingStudy::map_obs`), the stages the program
//! times on it are kept as spans nested in the call's span, so the mapping
//! and partition figures come from the program's own stage boundaries. A
//! span's self time is its duration less that of its nested spans, so a
//! layer's self time is the plain sum of its spans' self times. Spans stay
//! in memory and are written once, at the end of the run, in the Chrome
//! trace-event format that `chrome://tracing` and Perfetto open directly.

use massf_core::obs::json::quote;
use massf_core::obs::Recorder;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>` for the benchmark's spans (e.g. `routing.build`),
    /// `<layer>/<stage>` for the program's own (e.g. `partition/top`).
    pub name: String,
    /// Pipeline iteration the call belongs to.
    pub iteration: usize,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Summed duration of the program spans nested in this one.
    pub nested_s: f64,
    /// True for a program span nested in a benchmark span.
    pub nested: bool,
    /// True for calls on the `massf run`-ordered product path (setup,
    /// lint, map, audit, sequential emulation); false for the extra
    /// executors and probes that run after it.
    pub in_pipeline: bool,
}

impl Span {
    /// The crate the call goes into: the name up to the first `.` or `/`.
    pub fn layer(&self) -> &str {
        self.name.split(['.', '/']).next().unwrap_or(&self.name)
    }

    /// Time not covered by nested spans.
    pub fn self_s(&self) -> f64 {
        self.dur_s - self.nested_s
    }
}

/// Records spans when on; runs the closure untouched when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    iteration: usize,
    in_pipeline: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing (the untraced pass).
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer (the traced pass).
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            iteration: 0,
            in_pipeline: true,
            spans: Vec::new(),
        }
    }

    /// True when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts attributing spans to `iteration`'s product path.
    pub fn begin_iteration(&mut self, iteration: usize) {
        self.iteration = iteration;
        self.in_pipeline = true;
    }

    /// Marks the end of the product path: later spans of this iteration
    /// are extras outside `pipeline_s`.
    pub fn end_pipeline(&mut self) {
        self.in_pipeline = false;
    }

    /// Runs `f`, recording it as span `name` when tracing is on.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.program(name, |_| f())
    }

    /// Runs `f` with a fresh [`Recorder`] for the program to time its
    /// stages on, recording the call as span `name` when tracing is on,
    /// with the program's spans nested in it. Those carry durations only,
    /// so they are laid end to end from the call's start, in the order
    /// they finished.
    pub fn program<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let mut rec = Recorder::new();
        if !self.on {
            return f(&mut rec);
        }
        let t0 = Instant::now();
        let out = f(&mut rec);
        let dur_s = t0.elapsed().as_secs_f64();
        let start_s = t0.duration_since(self.origin).as_secs_f64();
        let mut at = start_s;
        let nested: Vec<Span> = rec
            .spans()
            .iter()
            .map(|s| {
                let dur_s = s.wall_us as f64 * 1e-6;
                at += dur_s;
                Span {
                    name: s.name.clone(),
                    iteration: self.iteration,
                    start_s: at - dur_s,
                    dur_s,
                    nested_s: 0.0,
                    nested: true,
                    in_pipeline: self.in_pipeline,
                }
            })
            .collect();
        self.spans.push(Span {
            name: name.to_string(),
            iteration: self.iteration,
            start_s,
            dur_s,
            nested_s: at - start_s,
            nested: false,
            in_pipeline: self.in_pipeline,
        });
        self.spans.extend(nested);
        out
    }

    /// Spans of one iteration.
    pub fn iteration_spans(&self, iteration: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.iteration == iteration)
    }

    /// The spans as a Chrome trace-event JSON document. `metadata` is an
    /// already-rendered JSON object stored under `"otherData"`.
    pub fn to_chrome_json(&self, metadata: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"iteration\":{},\"in_pipeline\":{},\"nested\":{},\"self_us\":{:.3}}}}}",
                quote(&s.name),
                quote(s.layer()),
                s.start_s * 1e6,
                s.dur_s * 1e6,
                s.iteration,
                s.in_pipeline,
                s.nested,
                s.self_s() * 1e6
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":");
        out.push_str(metadata);
        out.push_str("}\n");
        out
    }
}
