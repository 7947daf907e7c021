//! Fig. 12 rows, model predictions and violins pinned across commits.
//!
//! `tests/prediction_pipeline.rs` and the in-crate suites compare one
//! build with itself, and the benchmark compares a digest with the first
//! pass of the same build; neither notices a commit that moves every
//! number the same way. These constants were recorded at the commit
//! *before* the predictor grid was rebuilt around its distinct fits, the
//! GBT around columns sorted once per fit, the MLP around flat arrays and
//! the violin around one evaluation of its curve — none of which is
//! allowed to move a byte. A digest that moves names its system and its
//! model: a GBT row can move only where two candidate splits score an ulp
//! apart (see `models/gbt.rs`, "Contract"); a move anywhere else is a bug.

use lumos_analysis::{geometry, user_failures};
use lumos_core::{SystemId, Trace};
use lumos_predict::models::{Gbt, LinearRegression, Mlp, Model, Tobit};
use lumos_predict::{evaluate_trace, Dataset, Instance, ModelKind};
use lumos_traces::{systems, Generator, GeneratorConfig};
use serde::Serialize;

mod support;
use support::fnv1a;

/// The elapsed points of Fig. 12.
const ELAPSED_FRACS: [f64; 3] = [0.125, 0.25, 0.5];
/// Cap on instances per system: the whole file stays under ≈ 20 s in a
/// debug build of the recording commit.
const MAX_INSTANCES: usize = 3_000;

fn generate(system: SystemId) -> Trace {
    Generator::new(
        systems::profile_for(system),
        GeneratorConfig {
            seed: 2024,
            span_days: 1,
            ..GeneratorConfig::default()
        },
    )
    .generate()
}

fn json_digest(value: &impl Serialize) -> u64 {
    fnv1a(
        serde_json::to_string(value)
            .expect("outputs serialize")
            .bytes(),
    )
}

#[test]
fn fig12_rows_are_pinned() {
    // Per system: the digest of the whole output, then of each model's
    // rows in `ModelKind::ALL` order (Last2, Tobit, XGBoost, LR, MLP).
    let golden: [(SystemId, usize, u64, [u64; 5]); 5] = [
        (
            SystemId::Mira,
            15,
            16_027_101_113_372_981_455,
            [
                9_206_586_419_998_165_071,
                5_461_546_017_647_085_498,
                1_090_013_225_045_643_292,
                16_537_143_869_190_715_852,
                2_678_096_563_738_908_928,
            ],
        ),
        (
            SystemId::Theta,
            10,
            6_642_052_766_851_075_615,
            [
                12_779_044_072_221_687_676,
                9_084_742_056_150_169_222,
                10_949_548_517_753_396_368,
                4_558_170_234_341_712_758,
                4_411_726_672_459_352_185,
            ],
        ),
        (
            SystemId::BlueWaters,
            15,
            685_843_858_975_636_309,
            [
                14_745_601_694_354_781_504,
                9_462_184_951_506_925_699,
                7_437_043_484_504_393_611,
                17_821_492_052_965_748_705,
                14_852_951_118_841_027_526,
            ],
        ),
        (
            SystemId::Philly,
            15,
            9_317_074_186_520_703_143,
            [
                16_305_451_721_734_324_644,
                8_973_530_184_821_914_041,
                16_136_964_104_918_102_797,
                17_282_123_094_076_622_856,
                7_201_238_762_941_623_489,
            ],
        ),
        (
            SystemId::Helios,
            15,
            7_961_445_595_693_308_556,
            [
                6_301_706_280_807_799_410,
                7_552_490_005_449_045_243,
                15_002_324_365_650_061_676,
                1_283_863_466_154_488_282,
                16_058_462_376_159_511_329,
            ],
        ),
    ];
    let actual = golden.map(|(system, ..)| {
        let rows = evaluate_trace(&generate(system), &ELAPSED_FRACS, MAX_INSTANCES);
        let per_model = ModelKind::ALL
            .map(|kind| json_digest(&rows.iter().filter(|r| r.model == kind).collect::<Vec<_>>()));
        (system, rows.len(), json_digest(&rows), per_model)
    });
    assert_eq!(
        actual, golden,
        "Fig. 12 rows moved (left: this build, right: pinned)"
    );
}

/// A system's training and test split, as `evaluate_trace` takes them.
fn split(system: SystemId) -> (Vec<Instance>, Vec<Instance>) {
    let mut dataset = Dataset::from_trace(&generate(system));
    let stride = dataset.len().div_ceil(MAX_INSTANCES);
    dataset.instances = dataset.instances.into_iter().step_by(stride).collect();
    let (train, test) = dataset.split(0.6);
    (train.to_vec(), test.to_vec())
}

fn build(name: &str) -> Box<dyn Model> {
    match name {
        "LR" => Box::new(LinearRegression::default()),
        "Tobit" => Box::new(Tobit::default()),
        "XGBoost" => Box::new(Gbt::default()),
        "MLP" => Box::new(Mlp::default()),
        other => panic!("no feature model named {other}"),
    }
}

#[test]
fn model_predictions_are_pinned() {
    // Each feature model fit twice per system — on every training row with
    // the static features, and on the rows that outlive a quarter of the
    // mean runtime with the (constant) elapsed column appended — and
    // probed on the first 300 test rows: the digests are over the bits of
    // every prediction. Philly has no walltimes, so its Tobit is its LR;
    // Blue Waters has censored rows.
    let golden: [(SystemId, &str, u64, u64); 8] = [
        (
            SystemId::Philly,
            "LR",
            3_070_499_170_619_076_627,
            2_863_969_471_203_048_448,
        ),
        (
            SystemId::Philly,
            "Tobit",
            3_070_499_170_619_076_627,
            2_863_969_471_203_048_448,
        ),
        (
            SystemId::Philly,
            "XGBoost",
            850_610_161_972_592_244,
            5_472_385_419_975_749_009,
        ),
        (
            SystemId::Philly,
            "MLP",
            7_131_736_898_372_243_874,
            4_010_360_963_701_257_061,
        ),
        (
            SystemId::BlueWaters,
            "LR",
            8_291_844_869_273_502_411,
            16_889_666_080_856_240_694,
        ),
        (
            SystemId::BlueWaters,
            "Tobit",
            11_701_776_337_325_614_680,
            13_020_467_207_112_937_846,
        ),
        (
            SystemId::BlueWaters,
            "XGBoost",
            9_298_069_083_388_258_788,
            7_956_720_985_671_551_724,
        ),
        (
            SystemId::BlueWaters,
            "MLP",
            6_378_215_480_601_376_899,
            4_139_229_763_906_268_650,
        ),
    ];
    let mut actual = Vec::new();
    for system in [SystemId::Philly, SystemId::BlueWaters] {
        let (train, test) = split(system);
        let elapsed = 0.25 * train.iter().map(|i| i.runtime).sum::<f64>() / train.len() as f64;
        let fit_and_probe = |name: &str, aware: bool| {
            let features = |i: &Instance| {
                let mut row = i.features.to_vec();
                if aware {
                    row.push((1.0 + elapsed).ln());
                }
                row
            };
            let rows: Vec<&Instance> = train
                .iter()
                .filter(|i| !aware || i.runtime > elapsed)
                .collect();
            assert!(rows.len() > 100, "{system:?} has long jobs");
            let x: Vec<Vec<f64>> = rows.iter().map(|i| features(i)).collect();
            let y: Vec<f64> = rows.iter().map(|i| i.runtime).collect();
            let censored: Vec<bool> = rows.iter().map(|i| i.censored).collect();
            let mut model = build(name);
            model.fit(&x, &y, &censored);
            fnv1a(
                test.iter()
                    .take(300)
                    .flat_map(|i| model.predict(&features(i)).to_bits().to_le_bytes()),
            )
        };
        for (_, name, ..) in golden.iter().filter(|g| g.0 == system) {
            actual.push((
                system,
                *name,
                fit_and_probe(name, false),
                fit_and_probe(name, true),
            ));
        }
    }
    assert_eq!(
        actual,
        golden.to_vec(),
        "model predictions moved (left: this build, right: pinned)"
    );
}

#[test]
fn violins_are_pinned() {
    // Fig. 1a (one violin over every runtime of the day) and Fig. 11 (up
    // to nine violins of the three heaviest users) as the benchmark
    // digests them.
    let golden: [(SystemId, u64, u64); 5] = [
        (
            SystemId::Mira,
            16_673_065_688_271_142_742,
            15_484_423_908_828_669_513,
        ),
        (
            SystemId::Theta,
            1_251_229_715_336_059_235,
            9_654_277_443_370_782_440,
        ),
        (
            SystemId::BlueWaters,
            6_358_614_293_889_284_191,
            12_262_694_126_090_859_583,
        ),
        (
            SystemId::Philly,
            15_634_333_508_778_242_936,
            16_722_297_488_750_395_641,
        ),
        (
            SystemId::Helios,
            16_952_272_566_169_977_613,
            12_344_013_728_968_048_651,
        ),
    ];
    let actual = golden.map(|(system, ..)| {
        let trace = generate(system);
        (
            system,
            json_digest(&geometry::runtime_geometry(&trace)),
            json_digest(&user_failures::top_user_violins(&trace, 3)),
        )
    });
    assert_eq!(
        actual, golden,
        "violins moved (left: this build, right: pinned)"
    );
}
