//! The catalog every workload serves, the request shapes of each
//! workload, and the reference answers the harness checks responses
//! against.
//!
//! Every dataset is generated from the run's seed, so the service only
//! ever sees generated inputs. All workloads build the same full catalog
//! (every dataset any workload serves), so set-up costs the same
//! whichever workload runs.

use fpdm::assoc::{self, TransactionDb};
use fpdm::classify::DecisionTree;
use fpdm::datagen::{self, baskets::BasketSpec, PlantedMotif};
use fpdm::episodes::{self, EpisodeParams, EventSequence};
use fpdm::plinda::MetricsRegistry;
use fpdm::seqmine::{self, DiscoveryParams};
use fpdm::service::{DatasetCatalog, JobPlane, MiningRequest, RuleTag};
use fpdm::treemine::{self, OrderedTree, TreeDiscoveryParams};

/// One benchmark workload: a closed loop over a fixed set of request
/// shapes. Requests and responses always cross the broker; where a
/// job's farm tuples go is the workload's [`Workload::plane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cheap non-farm jobs, 8 outstanding across 4 tenants.
    Light,
    /// Short farmed miners, one outstanding.
    Farm,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Light, Workload::Farm];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Light => "serve_light",
            Workload::Farm => "serve_farm",
        }
    }

    /// Requests the load generator keeps in flight.
    pub fn outstanding(self) -> usize {
        match self {
            Workload::Light => 8,
            Workload::Farm => 1,
        }
    }

    /// Where the service runs the jobs' farms. Light jobs are not farmed,
    /// and their service runs the shared plane over the broker. Farmed
    /// jobs run in private in-process spaces: over the broker socket each
    /// farmed request makes ~650 broker operations, and its run-to-run
    /// spread on a shared host was twice that of the same jobs in private
    /// spaces, even after the host-speed adjustment (`NOTES.md`).
    pub fn plane(self) -> JobPlane {
        match self {
            Workload::Light => JobPlane::Shared,
            Workload::Farm => JobPlane::Private,
        }
    }

    /// Tenants the requests rotate over.
    pub fn tenants(self) -> i64 {
        match self {
            Workload::Light => 4,
            Workload::Farm => 1,
        }
    }

    /// The request shapes this workload sends, in a fixed order.
    pub fn shapes(self) -> [Shape; 3] {
        match self {
            Workload::Light => [
                Shape::new("cart_vote", "classify.grow_ms.vote", "vote", |d| {
                    classify(d, RuleTag::Cart)
                }),
                Shape::new("c45_vote", "classify.grow_ms.vote_c45", "vote", |d| {
                    classify(d, RuleTag::C45)
                }),
                Shape::new("apriori_small", "assoc.apriori_ms.small", "baskets", |d| {
                    apriori(d, 30)
                }),
            ],
            Workload::Farm => [
                Shape::new(
                    "seqmine_short",
                    "seqmine.compute_ms.short",
                    "globins",
                    |d| seqmine(d, 4, 6, 20, 0),
                ),
                Shape::new("treemine", "treemine.compute_ms", "rna", |d| {
                    MiningRequest::Treemine {
                        dataset: d.into(),
                        params: TreeDiscoveryParams {
                            min_size: 2,
                            max_size: 4,
                            min_occurrence: 12,
                            max_distance: 0,
                        },
                    }
                }),
                Shape::new("episodes", "episodes.compute_ms", "alarms", |d| {
                    MiningRequest::Episodes {
                        dataset: d.into(),
                        params: EpisodeParams {
                            window: 5,
                            min_windows: 40,
                            min_length: 2,
                            max_length: 4,
                        },
                    }
                }),
            ],
        }
    }
}

/// Every request shape of every workload.
pub fn all_shapes() -> Vec<Shape> {
    Workload::ALL.iter().flat_map(|w| w.shapes()).collect()
}

/// A named request shape, sent against every variant of its dataset.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    /// Per-layer metric timing this shape's direct library call.
    pub compute_metric: &'static str,
    dataset: &'static str,
    make: fn(&str) -> MiningRequest,
}

impl Shape {
    fn new(
        name: &'static str,
        compute_metric: &'static str,
        dataset: &'static str,
        make: fn(&str) -> MiningRequest,
    ) -> Shape {
        Shape {
            name,
            compute_metric,
            dataset,
            make,
        }
    }

    /// The request against dataset variant `v`.
    pub fn request(&self, v: usize) -> MiningRequest {
        (self.make)(&variant_name(self.dataset, v))
    }
}

fn variant_name(dataset: &str, v: usize) -> String {
    format!("{dataset}.{v}")
}

fn seqmine(
    dataset: &str,
    min_len: usize,
    max_len: usize,
    occur: usize,
    muts: usize,
) -> MiningRequest {
    MiningRequest::Seqmine {
        dataset: dataset.into(),
        params: DiscoveryParams::new(min_len, max_len, occur, muts),
    }
}

fn classify(dataset: &str, rule: RuleTag) -> MiningRequest {
    MiningRequest::Classify {
        dataset: dataset.into(),
        rule,
        min_split: 2,
        max_depth: 64,
    }
}

fn apriori(dataset: &str, min_support: usize) -> MiningRequest {
    MiningRequest::Apriori {
        dataset: dataset.into(),
        min_support,
    }
}

/// Variants of every dataset in the catalog. Each shape is sent against
/// all of them, so a run's cost averages over many generated datasets and
/// does not hinge on one draw of the seed.
pub const VARIANTS: usize = 24;

/// Sub-seed of one dataset variant, so the datasets of one run are
/// independent draws.
fn sub_seed(seed: u64, v: usize, salt: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((v as u64) << 8) ^ salt
}

/// The full catalog every workload serves, generated from `seed`.
pub fn catalog(seed: u64) -> DatasetCatalog {
    let mut cat = DatasetCatalog::new();
    for v in 0..VARIANTS {
        cat.add_sequences(
            variant_name("globins", v),
            datagen::protein_family(
                sub_seed(seed, v, 1),
                40,
                60,
                10,
                &[PlantedMotif::mutated("HEMOGLB", 0.6, 1)],
            ),
        );
        cat.add_trees(
            variant_name("rna", v),
            datagen::rna_structures(
                sub_seed(seed, v, 2),
                30,
                12,
                &[(OrderedTree::parse("a(b,c)"), 0.5)],
            ),
        );
        cat.add_events(
            variant_name("alarms", v),
            EventSequence::new(datagen::event_stream(
                sub_seed(seed, v, 3),
                4000,
                4,
                0.2,
                &[(b"AB", 40)],
            )),
        );
        cat.add_table(
            variant_name("vote", v),
            datagen::benchmarks::benchmark("vote", sub_seed(seed, v, 4)),
        );
        cat.add_baskets(
            variant_name("baskets", v),
            baskets(200, sub_seed(seed, v, 6)),
        );
    }
    cat
}

fn baskets(transactions: usize, seed: u64) -> TransactionDb {
    datagen::baskets::basket_db(
        &BasketSpec {
            transactions,
            ..BasketSpec::default()
        },
        seed,
    )
}

/// The answer a direct sequential library call gives for `req`, rendered
/// exactly as the service renders its responses (`format!("{:?}")`).
/// Classification grows over the catalog's shared index, as the service
/// does, building it on first use.
pub fn direct(cat: &DatasetCatalog, req: &MiningRequest) -> Vec<u8> {
    let text = match req {
        MiningRequest::Seqmine { dataset, params } => {
            let seqs = cat.sequences(dataset).expect("seqmine dataset");
            format!(
                "{:?}",
                seqmine::discover::discover(seqs.as_ref().clone(), params.clone())
            )
        }
        MiningRequest::Treemine { dataset, params } => {
            let trees = cat.trees(dataset).expect("treemine dataset");
            format!(
                "{:?}",
                treemine::discover_tree_motifs(trees.as_ref().clone(), params.clone())
            )
        }
        MiningRequest::Episodes { dataset, params } => {
            let events = cat.events(dataset).expect("episodes dataset");
            format!("{:?}", episodes::discover_episodes(events, params.clone()))
        }
        MiningRequest::Classify { dataset, rule, .. } => {
            let entry = cat.table(dataset).expect("classify dataset");
            let index = entry.index(&MetricsRegistry::new());
            let data = entry.data();
            let rows: Vec<usize> = (0..data.len()).collect();
            let grow = req.grow_config().expect("classify carries grow knobs");
            let tree = DecisionTree::grow_indexed(data, &index, &rows, &rule.grow_rule(), &grow);
            format!("{tree:?}")
        }
        MiningRequest::Apriori {
            dataset,
            min_support,
        } => {
            let db = cat.baskets(dataset).expect("apriori dataset");
            format!("{:?}", assoc::apriori(db, *min_support))
        }
    };
    text.into_bytes()
}
