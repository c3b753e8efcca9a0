//! Frequent episode discovery (§8.2's future-work application, built):
//! plant a serial episode in a noisy event stream and recover it with the
//! E-dag framework, sequentially and in parallel.
//!
//! ```text
//! cargo run --release -p fpdm --example event_episodes
//! ```

use fpdm::core::{parallel_ett, ParallelConfig};
use fpdm::datagen::event_stream;
use fpdm::episodes::{discover_episodes, EpisodeMiningProblem, EpisodeParams, EventSequence};
use std::sync::Arc;

fn main() {
    // 2000 ticks of background noise over types a-f, with "x then y then
    // z" recurring every ~12 ticks.
    let raw = event_stream(42, 2000, 6, 0.4, &[(b"xyz", 12)]);
    let events = EventSequence::new(raw);
    println!(
        "{} events over {:?}, alphabet {:?}",
        events.events().len(),
        events.span().unwrap(),
        events
            .alphabet()
            .iter()
            .map(|&e| e as char)
            .collect::<String>()
    );

    let windows = events.n_windows(8);
    let params = EpisodeParams {
        window: 8,
        min_windows: windows / 3,
        min_length: 2,
        max_length: 3,
    };
    let found = discover_episodes(&events, params.clone());
    println!("\nepisodes in >= 1/3 of the {windows} width-8 windows:");
    for f in &found {
        println!(
            "  {}  ({} windows, {:.0}%)",
            f.episode.iter().map(|&e| e as char).collect::<String>(),
            f.windows,
            f.windows as f64 / windows as f64 * 100.0
        );
    }
    assert!(
        found.iter().any(|f| f.episode == b"xyz".to_vec()),
        "the planted episode should surface"
    );

    let problem = Arc::new(EpisodeMiningProblem::new(events, params));
    let parallel = problem.report(&parallel_ett(
        Arc::clone(&problem),
        &ParallelConfig::load_balanced(4).adaptive(),
    ));
    assert_eq!(found, parallel);
    println!(
        "\nparallel run on 4 PLinda workers agrees: {} episodes",
        parallel.len()
    );
}
