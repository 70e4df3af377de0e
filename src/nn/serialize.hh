/**
 * @file
 * Text serialization of trained networks.
 *
 * The paper notes that "learned knowledge is kept in MLPs by memorizing
 * their weights and biases" — this module writes exactly that, as the
 * network section of the serve::ModelBundle artifact, so a model
 * trained once can be reloaded and queried (e.g. by the tuning
 * advisor) without retraining.
 */

#ifndef WCNN_NN_SERIALIZE_HH
#define WCNN_NN_SERIALIZE_HH

#include <iosfwd>
#include <string>

#include "core/error.hh"
#include "nn/mlp.hh"

namespace wcnn {
namespace nn {

/**
 * Error thrown on malformed model files or I/O failure. Kind
 * "io.model". Every deserialization failure — truncation, garbled
 * tokens, impossible counts, non-finite weights — raises this typed
 * error, never a contract abort (malformed files are faults, not
 * bugs).
 */
class SerializeError : public IoError
{
  public:
    /** @param message Description of the parse or I/O fault. */
    explicit SerializeError(const std::string &message)
        : IoError("io.model", message)
    {
    }
};

/**
 * Reads and writes Mlp instances in a line-oriented text format with
 * full double precision.
 */
class Serializer
{
  public:
    /**
     * Write a network to a stream.
     *
     * @param net Network to persist.
     * @param os  Destination stream.
     */
    static void write(const Mlp &net, std::ostream &os);

    /**
     * Read a network from a stream.
     *
     * @param is Source stream.
     * @throws SerializeError on malformed input.
     */
    static Mlp read(std::istream &is);

    /**
     * Write standardizer moments as one line,
     * "<tag> <d> mu_1..mu_d sigma_1..sigma_d", at full (%.17g)
     * precision, as the ModelBundle artifact stores them.
     *
     * @param os    Destination stream.
     * @param tag   Line tag, e.g. "x_moments".
     * @param mu    Per-feature means.
     * @param sigma Per-feature scales; must equal mu in size.
     */
    static void writeMoments(std::ostream &os, const char *tag,
                             const numeric::Vector &mu,
                             const numeric::Vector &sigma);

    /**
     * Read a moments line written by writeMoments.
     *
     * @param is    Source stream.
     * @param tag   Expected line tag.
     * @param mu    Filled with the means.
     * @param sigma Filled with the scales.
     * @throws SerializeError on a missing tag, implausible count,
     *         non-finite mean, or non-positive/non-finite scale.
     */
    static void readMoments(std::istream &is, const char *tag,
                            numeric::Vector &mu, numeric::Vector &sigma);
};

} // namespace nn
} // namespace wcnn

#endif // WCNN_NN_SERIALIZE_HH
