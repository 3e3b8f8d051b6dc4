/**
 * @file
 * Text-format model loader — the second front-end.
 *
 * The paper connects STONNE to both PyTorch and Caffe; this loader
 * plays the Caffe role: a declarative, prototxt-inspired line format
 * describing a network, from which a runnable DnnModel is built (with
 * synthetic weights pruned to the declared sparsity). One op per line:
 *
 *   model my_net
 *   sparsity 0.7
 *   seed 11
 *   input 3 32 32              # channels X Y   (or: input2d rows feats)
 *   conv name=c1 out=16 kernel=3 stride=2 pad=1
 *   relu save=s1
 *   conv name=e3 out=16 kernel=3 pad=1 from=s1
 *   relu
 *   concat with=s1
 *   maxpool window=2 stride=2
 *   gap
 *   flatten
 *   linear name=fc out=10
 *   logsoftmax
 *
 * `save=<label>` names a layer's output; `from=`/`with=` reference a
 * label (or the literal `input`). `attention name=a heads=4` builds a
 * BERT-style self-attention block; `add with=<label>` a residual.
 * `#` starts a comment. Unknown ops or dangling labels are fatal().
 */

#ifndef STONNE_FRONTEND_MODEL_LOADER_HPP
#define STONNE_FRONTEND_MODEL_LOADER_HPP

#include <string>

#include "frontend/dnn_layer.hpp"

namespace stonne {

/**
 * Build a model from an in-memory description. Malformed statements —
 * trailing junk after a number (`seed 5x`), truncated argument lists,
 * non-numeric values — are rejected with a `origin:line` diagnostic;
 * @param origin names the source in error messages (a file path, or
 * "<string>" for in-memory text).
 *
 * The most recently loaded model is kept, keyed by the text and the
 * default seed: loading the same description again returns a copy whose
 * tensors share its storage (copy-on-write), without parsing or
 * synthesising it again. Safe to call from several threads.
 */
DnnModel loadModelFromText(const std::string &text,
                           std::uint64_t default_seed = 7,
                           const std::string &origin = "<string>");

/** Build a model from a description file on disk. */
DnnModel loadModelFromFile(const std::string &path,
                           std::uint64_t default_seed = 7);

} // namespace stonne

#endif // STONNE_FRONTEND_MODEL_LOADER_HPP
