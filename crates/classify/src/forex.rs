//! Making money in foreign exchange (§5.6): the NyuMiner-RS application.
//!
//! From a daily exchange-rate series, ten derived percentage-change
//! features predict tomorrow's movement. Trees overfit badly here (49–52%
//! accuracy, §5.6.2), but traders don't trade every day: **rule
//! selection** keeps only the rare rules with confidence ≥ `Cmin` and
//! support ≥ `Smin`, trades only on covered days, and wins.

use crate::data::{AttrValue, Attribute, Dataset};
use crate::nyuminer::{NyuConfig, NyuMinerRS};

/// Trading-day horizon constants (§5.6.1's feature definitions).
const WEEK: usize = 5;
const MONTH: usize = 21;
const SIX_MONTHS: usize = 126;
const YEAR: usize = 252;

/// The ten §5.6.1 feature names, in dataset column order.
pub const FEATURE_NAMES: [&str; 10] = [
    "one",
    "two",
    "three",
    "four",
    "five",
    "average",
    "weighted",
    "month",
    "six-month",
    "year",
];

/// Feature table built from a rate series; `day_of_row[i]` is the index
/// into the original series of row `i`'s "today".
pub struct ForexData {
    /// The feature dataset (classes: 0 = down, 1 = up).
    pub data: Dataset,
    /// Rate-series day per row.
    pub day_of_row: Vec<usize>,
}

fn pct(now: f64, then: f64) -> f64 {
    (now - then) / then * 100.0
}

/// Build the §5.6.1 dataset from a daily rate series (needs more than a
/// year of history plus one day of look-ahead per row).
pub fn build_features(rates: &[f64]) -> ForexData {
    let (columns, classes, day_of_row) = feature_cells(rates);
    let attributes = FEATURE_NAMES
        .iter()
        .map(|n| Attribute::Numeric {
            name: (*n).to_string(),
        })
        .collect();
    ForexData {
        data: Dataset::new(
            attributes,
            columns,
            classes,
            vec!["down".into(), "up".into()],
        ),
        day_of_row,
    }
}

/// The cells [`build_features`] stores: the feature columns, the class
/// of each row and its day.
fn feature_cells(rates: &[f64]) -> (Vec<Vec<AttrValue>>, Vec<u16>, Vec<usize>) {
    assert!(
        rates.len() > YEAR + 2,
        "need more than a year of rates, got {}",
        rates.len()
    );
    let mut columns: Vec<Vec<AttrValue>> = vec![Vec::new(); 10];
    let mut classes = Vec::new();
    let mut day_of_row = Vec::new();
    for d in YEAR..rates.len() - 1 {
        let r = rates[d];
        let daily: Vec<f64> = (0..WEEK)
            .map(|k| pct(rates[d - k], rates[d - k - 1]))
            .collect();
        let features = [
            pct(r, rates[d - 1]),
            pct(r, rates[d - 2]),
            pct(r, rates[d - 3]),
            pct(r, rates[d - 4]),
            pct(r, rates[d - 5]),
            daily.iter().sum::<f64>() / WEEK as f64,
            daily
                .iter()
                .enumerate()
                .map(|(k, v)| (WEEK - k) as f64 * v)
                .sum::<f64>()
                / (1..=WEEK).sum::<usize>() as f64,
            pct(r, rates[d - MONTH]),
            pct(r, rates[d - SIX_MONTHS]),
            pct(r, rates[d - YEAR]),
        ];
        for (c, f) in features.into_iter().enumerate() {
            columns[c].push(AttrValue::Num(f));
        }
        classes.push(u16::from(rates[d + 1] > r));
        day_of_row.push(d);
    }
    (columns, classes, day_of_row)
}

/// Outcome of the §5.6.3 trading simulation.
#[derive(Debug, Clone)]
pub struct TradingOutcome {
    /// Days on which the rules decided (and we traded).
    pub days_covered: usize,
    /// Correct movement predictions among covered days.
    pub correct: usize,
    /// Accuracy on the covered days.
    pub accuracy: f64,
    /// Final wealth starting from 1000 units of the first currency.
    pub first_currency: f64,
    /// Final wealth starting from 1000 units of the second currency.
    pub second_currency: f64,
    /// Percentage gains.
    pub gain_first: f64,
    /// Percentage gain of the second-currency run.
    pub gain_second: f64,
}

impl TradingOutcome {
    /// Mean of the two runs' percentage gains (the Table 5.6 "Average").
    pub fn average_gain(&self) -> f64 {
        (self.gain_first + self.gain_second) / 2.0
    }
}

/// Simulate the simplest strategy of §5.6.3. `rates[d]` is units of the
/// second currency per unit of the first; `decisions` maps a rate day to
/// the predicted movement of tomorrow's rate (1 = up).
///
/// Holding the *first* currency, a predicted **down** day is advantageous
/// (convert to the second currency today, back tomorrow at a better
/// rate); holding the *second*, a predicted **up** day is.
pub fn trade(rates: &[f64], decisions: &[(usize, u16)]) -> TradingOutcome {
    let mut first = 1000.0f64;
    let mut second = 1000.0f64;
    let mut correct = 0usize;
    for &(day, dir) in decisions {
        assert!(day + 1 < rates.len(), "decision beyond the series");
        let (today, tomorrow) = (rates[day], rates[day + 1]);
        let actually_up = tomorrow > today;
        if (dir == 1) == actually_up {
            correct += 1;
        }
        if dir == 0 {
            // Rate falls: first currency strengthens; round-trip through
            // the second currency multiplies first-holdings by r_t/r_{t+1}.
            first *= today / tomorrow;
        } else {
            second *= tomorrow / today;
        }
    }
    let n = decisions.len();
    TradingOutcome {
        days_covered: n,
        correct,
        accuracy: correct as f64 / n.max(1) as f64,
        first_currency: first,
        second_currency: second,
        gain_first: (first - 1000.0) / 10.0,
        gain_second: (second - 1000.0) / 10.0,
    }
}

/// Full §5.6 pipeline result.
pub struct ForexRun {
    /// Number of rules selected.
    pub rules_selected: usize,
    /// Train-half accuracy of plain (threshold-free) classification on
    /// the test half — the "poor job" baseline of §5.6.2.
    pub plain_accuracy: f64,
    /// The trading simulation on the covered test days.
    pub outcome: TradingOutcome,
}

/// Run the complete pipeline on a rate series: features, time split
/// (first half trains, second half tests), NyuMiner-RS rule selection
/// with `(cmin, smin)`, out-of-sample trading.
pub fn run_forex(
    rates: &[f64],
    config: &NyuConfig,
    trials: usize,
    cmin: f64,
    smin: f64,
    seed: u64,
) -> ForexRun {
    let fx = build_features(rates);
    let n = fx.data.len();
    let train: Vec<usize> = (0..n / 2).collect();
    let test: Vec<usize> = (n / 2..n).collect();

    let model = NyuMinerRS::fit(&fx.data, &train, config, trials, cmin, smin, seed);
    use crate::data::Classifier;
    let plain_accuracy = model.accuracy(&fx.data, &test);

    let mut decisions = Vec::new();
    for &row in &test {
        if let Some(dir) = model.rules.decide(&fx.data, row) {
            decisions.push((fx.day_of_row[row], dir));
        }
    }
    ForexRun {
        rules_selected: model.rules.rules().len(),
        plain_accuracy,
        outcome: trade(rates, &decisions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::fixtures::assert_stores_exactly;

    /// A deterministic synthetic rate series with a weak exploitable
    /// regime (mean reversion after 5 down days).
    fn synthetic_rates(n: usize) -> Vec<f64> {
        let mut rates = vec![100.0f64];
        let mut state = 0x5eed_u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut down_run = 0;
        for _ in 1..n {
            let last = *rates.last().unwrap();
            let drift = if down_run >= 3 { 0.004 } else { 0.0 };
            let step = rnd() * 0.01 + drift;
            let next = (last * (1.0 + step)).max(1.0);
            down_run = if next < last { down_run + 1 } else { 0 };
            rates.push(next);
        }
        rates
    }

    #[test]
    fn features_have_expected_shape() {
        let rates = synthetic_rates(400);
        let fx = build_features(&rates);
        assert_eq!(fx.data.n_attributes(), 10);
        assert_eq!(fx.data.len(), 400 - YEAR - 1);
        assert_eq!(fx.day_of_row.len(), fx.data.len());
        assert_eq!(fx.day_of_row[0], YEAR);
        // Feature "one" of row 0 is the day-252 vs day-251 change.
        let AttrValue::Num(one) = fx.data.value(0, 0) else {
            panic!()
        };
        assert!((one - pct(rates[YEAR], rates[YEAR - 1])).abs() < 1e-9);
    }

    #[test]
    fn features_are_stored_exactly() {
        let mut series: Vec<Vec<f64>> = datagen::fx_pairs(7).into_iter().map(|(_, r)| r).collect();
        series.push(synthetic_rates(400));
        for rates in series {
            let (columns, _, _) = feature_cells(&rates);
            assert_stores_exactly(&build_features(&rates).data, &columns);
        }
    }

    #[test]
    fn class_is_next_day_movement() {
        let rates = synthetic_rates(300);
        let fx = build_features(&rates);
        for i in 0..fx.data.len() {
            let d = fx.day_of_row[i];
            assert_eq!(fx.data.class(i) == 1, rates[d + 1] > rates[d], "row {i}");
        }
    }

    #[test]
    fn perfect_predictions_always_profit() {
        let rates = synthetic_rates(320);
        // Oracle decisions on the last 30 tradable days.
        let decisions: Vec<(usize, u16)> = (280..310)
            .map(|d| (d, u16::from(rates[d + 1] > rates[d])))
            .collect();
        let out = trade(&rates, &decisions);
        assert_eq!(out.accuracy, 1.0);
        assert!(out.first_currency >= 1000.0);
        assert!(out.second_currency >= 1000.0);
        assert!(out.average_gain() > 0.0);
    }

    #[test]
    fn inverted_predictions_always_lose() {
        let rates = synthetic_rates(320);
        let decisions: Vec<(usize, u16)> = (280..310)
            .map(|d| (d, u16::from(rates[d + 1] <= rates[d])))
            .collect();
        let out = trade(&rates, &decisions);
        assert_eq!(out.accuracy, 0.0);
        assert!(out.first_currency <= 1000.0);
        assert!(out.second_currency <= 1000.0);
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let rates = synthetic_rates(700);
        let run = run_forex(&rates, &NyuConfig::default(), 2, 0.6, 0.01, 9);
        // Sanity, not profitability (the series is mostly noise).
        assert!(run.plain_accuracy > 0.2);
        assert!(run.outcome.days_covered <= 700);
    }
}
