// Sequence classification: the second output branch of the paper's Figure 1
// ("selects the embedding at certain token position, and predicts a binary
// label for each input sequence").
//
//   ./sequence_classification [--steps 200] [--q 2] [--classes 2]
//                             [--purity 0.9] [--eval-batches 20]
//
// Trains the classification head on synthetic class-conditional token streams
// with both the serial oracle and the Optimus 2D engine, then evaluates
// accuracy on held-out batches. The two engines produce the same model (same
// counter-based initialisation, same batches) so their accuracies agree.

#include <iostream>
#include <mutex>
#include <vector>

#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "mesh/mesh.hpp"
#include "model/serial_model.hpp"
#include "runtime/data.hpp"
#include "runtime/lr_schedule.hpp"
#include "runtime/optimizer.hpp"
#include "runtime/trainer.hpp"
#include "tensor/distribution.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace oc = optimus::comm;
namespace om = optimus::model;
namespace ort = optimus::runtime;
namespace ot = optimus::tensor;

namespace {

om::TransformerConfig make_config(int q, int classes) {
  om::TransformerConfig cfg;
  cfg.batch = 8 * q;
  cfg.seq_len = 12;
  cfg.hidden = 16 * q;
  cfg.heads = 2 * q;
  cfg.vocab = 16 * q;
  cfg.layers = 2;
  cfg.num_classes = classes;
  cfg.seed = 23;
  return cfg;
}

/// Accuracy of argmax(logits) against labels.
double accuracy(const ot::Tensor& logits, const ot::ITensor& labels) {
  const ot::index_t b = logits.size(0);
  const ot::index_t c = logits.size(1);
  ot::index_t correct = 0;
  for (ot::index_t i = 0; i < b; ++i) {
    ot::index_t best = 0;
    for (ot::index_t j = 1; j < c; ++j) {
      if (logits.at(i, j) > logits.at(i, best)) best = j;
    }
    correct += best == labels[i] ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(b);
}

}  // namespace

int main(int argc, char** argv) {
  optimus::util::Cli cli(argc, argv);
  const int steps = cli.get_int("steps", 200, /*min_value=*/1);
  const int q = cli.get_int("q", 2);
  const int classes = cli.get_int("classes", 2);
  const double purity = cli.get_double("purity", 0.9);
  const int eval_batches = cli.get_int("eval-batches", 20);
  cli.finish();

  const auto cfg = make_config(q, classes);
  std::cout << "classifying " << classes << "-class synthetic sequences (purity " << purity
            << ", vocab " << cfg.vocab << ", " << cfg.parameter_count() << " parameters)\n";

  // Pre-draw all batches so both engines see identical data.
  std::vector<ort::ClsBatch> train_batches, eval_set;
  {
    ort::SyntheticClsWorkload train(cfg.batch, cfg.seq_len, cfg.vocab, classes, purity, 31);
    for (int i = 0; i < steps; ++i) train_batches.push_back(train.next());
    ort::SyntheticClsWorkload eval(cfg.batch, cfg.seq_len, cfg.vocab, classes, purity, 77);
    for (int i = 0; i < eval_batches; ++i) eval_set.push_back(eval.next());
  }

  // --- Serial oracle ---------------------------------------------------------
  double serial_loss = 0, serial_acc = 0;
  {
    om::SerialTransformer<float> model(cfg);
    ort::Adam<float> opt;
    ort::ConstantLr lr(2e-3);
    std::size_t i = 0;
    auto losses = ort::train_cls(
        model, opt, lr, [&] { return train_batches[i++]; }, steps);
    serial_loss = ort::tail_mean(losses, 10);
    for (const auto& batch : eval_set) {
      model.forward(batch.tokens);
      serial_acc += accuracy(model.cls_logits(), batch.labels);
    }
    serial_acc /= eval_set.size();
  }

  // --- Optimus 2D engine ------------------------------------------------------
  double optimus_loss = 0, optimus_acc = 0;
  {
    std::mutex mu;
    oc::run_cluster(q * q, [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      optimus::core::OptimusTransformer<float> engine(cfg, mesh);
      ort::Adam<float> opt;
      ort::ConstantLr lr(2e-3);
      std::size_t i = 0;
      auto losses = ort::train_cls(
          engine, opt, lr, [&] { return train_batches[i++]; }, steps);

      // Distributed evaluation: each mesh row scores its own b/q sequences
      // (logits are replicated across the row); a world all-reduce of the
      // correct counts over-counts each row q times, so divide back out.
      double correct = 0;
      for (const auto& batch : eval_set) {
        engine.forward(batch.tokens);
        ot::Tensor logits = engine.cls_logits_block();  // [b/q, classes]
        ot::ITensor my_labels =
            ot::row_block(batch.labels, mesh.q(), mesh.row());
        correct += accuracy(logits, my_labels) * static_cast<double>(engine.batch_local());
      }
      ctx.world.all_reduce(&correct, 1);
      correct /= mesh.q();  // every device in a row counted the same rows
      if (ctx.rank == 0) {
        std::lock_guard<std::mutex> lock(mu);
        optimus_loss = ort::tail_mean(losses, 10);
        optimus_acc =
            correct / (static_cast<double>(cfg.batch) * eval_set.size());
      }
    });
  }

  optimus::util::Table t({"engine", "final loss", "eval accuracy"});
  t.add_row({"serial", optimus::util::Table::fmt(serial_loss),
             optimus::util::Table::fmt(serial_acc, 3)});
  t.add_row({"optimus (q=" + std::to_string(q) + ")", optimus::util::Table::fmt(optimus_loss),
             optimus::util::Table::fmt(optimus_acc, 3)});
  t.print(std::cout);
  std::cout << "\nchance accuracy = " << 1.0 / classes << "\n";
  return serial_acc > 1.5 / classes ? 0 : 1;
}
