//! MapReduce word count (paper §3.4, Figs. 11–12).
//!
//! Runs the canonical word-count MapReduce as a block script (mapper
//! `[w, 1]`, summing reducer, input split from a string), then scales to
//! a generated corpus and compares one worker against many.
//!
//! ```sh
//! cargo run --release --example word_count
//! cargo run --release --example word_count -- --trace target/word_count_trace.json
//! cargo run --release --example word_count -- --serve-metrics 127.0.0.1:9300
//! cargo run --release --example word_count -- --stream 64 --serve-metrics
//! ```
//!
//! With `--trace <path>`, span recording is enabled; the run prints its
//! `snap_trace::report()` table and writes a Chrome `trace_event` JSON
//! to `<path>` plus the report JSON to `<path>.report.json`. With
//! `--serve-metrics`, the process keeps re-running the MapReduce while
//! serving live `/metrics`, `/report.json`, and `/profile` (see
//! `examples/util/cli.rs`). With `--stream [chunk]`, the corpus runs
//! through the streaming pipeline tier instead — one long-lived
//! map → windowed-reduce pipeline over bounded channels — and the
//! comparison printed is streaming vs the batch-restart loop; a live
//! scrape then shows `snap_stream_items_out` and the windowed
//! `snap_stream_latency_ns` percentiles moving.

use std::sync::Arc;
use std::time::Instant;

use snap_core::data::{generate_words, reference_counts};
use snap_core::prelude::*;

#[path = "util/cli.rs"]
mod cli;

fn main() {
    let opts = cli::TraceOpts::from_args();
    // --- Figure 11: word count as blocks ----------------------------
    let sentence = "the quick brown fox jumps over the lazy dog the end";
    let project = Project::new("word-count").with_sprite(SpriteDef::new("Counter").with_script(
        Script::on_green_flag(vec![say(map_reduce(
            ring_reporter_with(vec!["w"], make_list(vec![var("w"), num(1.0)])),
            ring_reporter_with(
                vec!["vals"],
                combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
            ),
            split(text(sentence), text(" ")),
        ))]),
    ));
    let mut session = Session::load(project);
    session.run();
    println!("input : {sentence:?}");
    println!("output: {}", session.said()[0]);
    println!("        (sorted unique words with counts, as in Fig. 12)\n");

    // --- Scaling: a Zipf corpus, 1 worker vs many --------------------
    let n = 200_000;
    let words = generate_words(n, 42);
    let reference = reference_counts(&words);
    println!(
        "corpus: {n} Zipf-distributed words, {} unique",
        reference.len()
    );

    let mapper = Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ));
    let reducer = Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ));
    let items: Vec<Value> = words.iter().map(|w| Value::text(w.clone())).collect();

    // --stream: the same corpus as continuous traffic through the
    // streaming tier — one pipeline, windowed reduces, bounded memory —
    // against the pre-streaming alternative of one mapReduce per chunk.
    if let Some(chunk) = opts.stream {
        use snap_core::parallel::{Pipeline, StreamConfig};
        println!("\nstreaming word count: chunks of {chunk} items");
        let pipeline = Pipeline::new(StreamConfig {
            block_items: chunk,
            ..Default::default()
        })
        .map(mapper.clone())
        .reduce_by_key(reducer.clone(), chunk);

        let start = Instant::now();
        let mut streamed_pairs = 0usize;
        let stats = pipeline
            .run_each(items.clone(), |_| streamed_pairs += 1)
            .expect("streaming word count runs");
        let streaming = start.elapsed();
        println!(
            "  streaming    : {streaming:>10.2?}  {:.0} items/s  ({} windows, {} blocks, \
             peak queue {} of {})",
            n as f64 / streaming.as_secs_f64(),
            stats.windows,
            stats.blocks,
            stats.peak_queue_depths.iter().max().copied().unwrap_or(0),
            stats.queue_capacity,
        );

        let start = Instant::now();
        let mut batch_pairs = 0usize;
        for c in items.chunks(chunk) {
            batch_pairs +=
                snap_core::parallel::map_reduce(mapper.clone(), reducer.clone(), c.to_vec(), 4)
                    .expect("word count runs")
                    .len();
        }
        let batch = start.elapsed();
        println!(
            "  batch-restart: {batch:>10.2?}  {:.0} items/s  (one mapReduce per chunk)",
            n as f64 / batch.as_secs_f64()
        );
        println!(
            "  streaming is {:.2}x the restart loop ({streamed_pairs} = {batch_pairs} pairs out)",
            batch.as_secs_f64() / streaming.as_secs_f64()
        );
        assert_eq!(streamed_pairs, batch_pairs);

        opts.serve_and_rerun(|| {
            let stats = pipeline
                .run_each(items.clone(), |_| {})
                .expect("streaming word count runs");
            assert!(stats.items_out > 0);
        });
        opts.finish();
        return;
    }

    let mut baseline = None;
    for workers in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let out = snap_core::parallel::map_reduce(
            mapper.clone(),
            reducer.clone(),
            items.clone(),
            workers,
        )
        .expect("word count runs");
        let elapsed = start.elapsed();
        let baseline_time = *baseline.get_or_insert(elapsed);
        println!(
            "  {workers} worker(s): {elapsed:>10.2?}  speedup {:.2}x  ({} keys)",
            baseline_time.as_secs_f64() / elapsed.as_secs_f64(),
            out.len()
        );
        // Validate against the reference counts.
        assert_eq!(out.len(), reference.len());
        for (pair, (word, count)) in out.iter().zip(&reference) {
            let pair = pair.as_list().expect("pair");
            assert_eq!(pair.item(1).unwrap().to_display_string(), *word);
            assert_eq!(pair.item(2).unwrap().to_number() as u64, *count);
        }
    }
    println!("all worker counts agree with the sequential reference");

    // --serve-metrics: keep the shuffle hot so a live scrape always has
    // fresh windowed percentiles for shuffle.merge_ns. The rerun uses a
    // high-cardinality corpus on 4 workers, so every shuffle merges 4
    // chunk tables of 700 keys each.
    let hot_items: Vec<Value> = (0..6144)
        .map(|i| Value::text(format!("w{}", i % 700)))
        .collect();
    opts.serve_and_rerun(|| {
        let out =
            snap_core::parallel::map_reduce(mapper.clone(), reducer.clone(), hot_items.clone(), 4)
                .expect("word count runs");
        assert_eq!(out.len(), 700);
    });
    opts.finish();
}
