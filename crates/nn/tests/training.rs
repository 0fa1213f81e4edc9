//! Integration: real gradient training of small networks on the synthetic
//! dataset — the evidence that the nn/tensor substrate actually learns.

use lightnas_nn::data::{ShapesDataset, NUM_CLASSES};
use lightnas_nn::layers::{ClassifierHead, Conv2d, Linear, MbConv};
use lightnas_nn::optim::{Adam, Sgd};
use lightnas_nn::schedule::CosineSchedule;
use lightnas_nn::{Bindings, ParamStore};
use lightnas_tensor::Graph;

fn accuracy(
    store: &ParamStore,
    forward: impl Fn(
        &mut Graph,
        &mut Bindings,
        &ParamStore,
        lightnas_tensor::Var,
    ) -> lightnas_tensor::Var,
    data: &ShapesDataset,
) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for idx in data.epoch_batches(32, 1) {
        let (x, y) = data.batch(&idx);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let xv = g.input(x);
        let logits = forward(&mut g, &mut b, store, xv);
        let lv = g.value(logits);
        let classes = lv.shape().dim(1);
        for (i, &label) in y.iter().enumerate() {
            let row = &lv.as_slice()[i * classes..(i + 1) * classes];
            let mut best = 0;
            for (k, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = k;
                }
            }
            if best == label {
                correct += 1;
            }
            total += 1;
        }
    }
    correct as f64 / total.max(1) as f64
}

#[test]
fn linear_probe_beats_chance_on_shapes() {
    // A single linear layer on flattened pixels already separates several
    // of the patterns — the floor any conv net must beat.
    let data = ShapesDataset::generate(360, 8, 0.2, 0);
    let (train, valid) = data.split(0.25);
    let mut store = ParamStore::new();
    let lin = Linear::new(&mut store, "probe", 64, NUM_CLASSES, true, 0);
    let mut opt = Adam::new(5e-3, 1e-4);
    for epoch in 0..60 {
        for idx in train.epoch_batches(32, epoch) {
            let (x, y) = train.batch(&idx);
            let b = idx.len();
            let mut g = Graph::new();
            let mut bind = Bindings::new();
            let xv = g.input(x.reshape(&[b, 64]));
            let logits = lin.forward(&mut g, &mut bind, &store, xv);
            let loss = g.softmax_cross_entropy(logits, &y);
            g.backward(loss);
            opt.step(&mut store, &g, &bind);
        }
    }
    let acc = accuracy(
        &store,
        |g, b, s, x| {
            let n = g.value(x).shape().dim(0);
            let flat = g.reshape(x, &[n, 64]);
            lin.forward(g, b, s, flat)
        },
        &valid,
    );
    // Chance is 1/6 ≈ 0.17; a linear probe separates roughly half the
    // pattern classes (the others need non-linear features).
    assert!(acc > 0.45, "linear probe accuracy {acc:.2} too low");
}

#[test]
fn small_convnet_reaches_high_accuracy() {
    let data = ShapesDataset::generate(360, 8, 0.2, 1);
    let (train, valid) = data.split(0.25);
    let mut store = ParamStore::new();
    let stem = Conv2d::new(&mut store, "stem", 1, 8, 3, 1, 0);
    let block = MbConv::new(&mut store, "block", 8, 8, 3, 1, 3, false, 1);
    let head = ClassifierHead::new(&mut store, "head", 8, NUM_CLASSES, 2);
    let forward = |g: &mut Graph, b: &mut Bindings, s: &ParamStore, x| {
        let h = stem.forward(g, b, s, x);
        let h = g.relu6(h);
        let h = block.forward(g, b, s, h);
        head.forward(g, b, s, h)
    };

    let schedule = CosineSchedule::new(0.08, 25 * 8).with_warmup(0.01, 10);
    let mut opt = Sgd::new(schedule.lr_at(0), 0.9, 1e-4);
    let mut step = 0;
    for epoch in 0..25 {
        for idx in train.epoch_batches(32, epoch) {
            opt.set_lr(schedule.lr_at(step));
            step += 1;
            let (x, y) = train.batch(&idx);
            let mut g = Graph::new();
            let mut bind = Bindings::new();
            let xv = g.input(x);
            let logits = forward(&mut g, &mut bind, &store, xv);
            let loss = g.softmax_cross_entropy(logits, &y);
            g.backward(loss);
            opt.step(&mut store, &g, &bind);
        }
    }
    let acc = accuracy(&store, forward, &valid);
    assert!(
        acc > 0.8,
        "convnet accuracy {acc:.2} should be high on shapes"
    );
}

#[test]
fn training_is_bit_identical_across_kernel_thread_counts() {
    // An end-to-end training loop (MbConv stack, SGD + momentum) must land
    // on bit-identical weights whether the tensor kernels run serial or on
    // 4 scoped threads — the layer-level face of the deterministic-reduction
    // rule the tensor crate guarantees.
    fn train_and_hash() -> u64 {
        let data = ShapesDataset::generate(96, 8, 0.2, 5);
        let mut store = ParamStore::new();
        let stem = Conv2d::new(&mut store, "stem", 1, 8, 3, 1, 0);
        let block = MbConv::new(&mut store, "block", 8, 8, 3, 1, 3, false, 1);
        let head = ClassifierHead::new(&mut store, "head", 8, NUM_CLASSES, 2);
        let mut opt = Sgd::new(0.05, 0.9, 1e-4);
        for epoch in 0..3 {
            for idx in data.epoch_batches(32, epoch) {
                let (x, y) = data.batch(&idx);
                let mut g = Graph::new();
                let mut bind = Bindings::new();
                let xv = g.input(x);
                let h = stem.forward(&mut g, &mut bind, &store, xv);
                let h = g.relu6(h);
                let h = block.forward(&mut g, &mut bind, &store, h);
                let logits = head.forward(&mut g, &mut bind, &store, h);
                let loss = g.softmax_cross_entropy(logits, &y);
                g.backward(loss);
                opt.step(&mut store, &g, &bind);
            }
        }
        // FNV-1a over every parameter's bits, in registration order.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (_, _, t) in store.iter() {
            for v in t.as_slice() {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    let with_threads = |threads| lightnas_tensor::KernelCtx {
        threads,
        ..lightnas_tensor::KernelCtx::current()
    };
    let serial = with_threads(1).scope(train_and_hash);
    let threaded = with_threads(4).scope(train_and_hash);
    assert_eq!(
        serial, threaded,
        "4-thread training diverged from serial ({serial:016x} vs {threaded:016x})"
    );
}

#[test]
fn se_block_still_trains() {
    // Squeeze-and-Excitation in the loop must not break gradient flow.
    let data = ShapesDataset::generate(240, 8, 0.2, 2);
    let (train, valid) = data.split(0.25);
    let mut store = ParamStore::new();
    let stem = Conv2d::new(&mut store, "stem", 1, 8, 3, 1, 0);
    let block = MbConv::new(&mut store, "se_block", 8, 8, 3, 1, 3, true, 1);
    let head = ClassifierHead::new(&mut store, "head", 8, NUM_CLASSES, 2);
    let forward = |g: &mut Graph, b: &mut Bindings, s: &ParamStore, x| {
        let h = stem.forward(g, b, s, x);
        let h = g.relu6(h);
        let h = block.forward(g, b, s, h);
        head.forward(g, b, s, h)
    };
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut first_loss = None;
    let mut last_loss = 0.0f32;
    for epoch in 0..30 {
        for idx in train.epoch_batches(32, epoch) {
            let (x, y) = train.batch(&idx);
            let mut g = Graph::new();
            let mut bind = Bindings::new();
            let xv = g.input(x);
            let logits = forward(&mut g, &mut bind, &store, xv);
            let loss = g.softmax_cross_entropy(logits, &y);
            g.backward(loss);
            opt.step(&mut store, &g, &bind);
            last_loss = g.value(loss).item();
            first_loss.get_or_insert(last_loss);
        }
    }
    assert!(
        last_loss < first_loss.expect("at least one batch") / 2.0,
        "SE network failed to train: {first_loss:?} -> {last_loss}"
    );
    let acc = accuracy(&store, forward, &valid);
    assert!(acc > 0.5, "SE network accuracy {acc:.2}");
}

#[test]
fn gradient_descent_with_cosine_schedule_is_stable() {
    // The loss never explodes under the cosine schedule (a smoke test for
    // the optimizer/schedule interaction the paper's protocol uses).
    let data = ShapesDataset::generate(120, 8, 0.2, 3);
    let mut store = ParamStore::new();
    let lin = Linear::new(&mut store, "probe", 64, NUM_CLASSES, true, 0);
    let schedule = CosineSchedule::new(0.5, 60).with_warmup(0.05, 5);
    let mut opt = Sgd::new(schedule.lr_at(0), 0.9, 0.0);
    let mut step = 0;
    for epoch in 0..20 {
        for idx in data.epoch_batches(32, epoch) {
            opt.set_lr(schedule.lr_at(step));
            step += 1;
            let (x, y) = data.batch(&idx);
            let b = idx.len();
            let mut g = Graph::new();
            let mut bind = Bindings::new();
            let xv = g.input(x.reshape(&[b, 64]));
            let logits = lin.forward(&mut g, &mut bind, &store, xv);
            let loss = g.softmax_cross_entropy(logits, &y);
            g.backward(loss);
            opt.step(&mut store, &g, &bind);
            assert!(
                g.value(loss).item().is_finite(),
                "loss diverged at step {step}"
            );
        }
    }
}
