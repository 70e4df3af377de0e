/**
 * @file
 * Typed errors of the inference-serving subsystem.
 *
 * Serving adds a class of faults the offline pipeline never sees:
 * clients send garbage, connection tables fill up, models are swapped
 * underneath requests. Each of those is a *fault*, not a bug (see
 * core/error.hh), so each gets a wcnn::Error subclass with a stable
 * kind() that the wire protocol forwards verbatim in error frames —
 * a client can switch on the kind without parsing prose.
 *
 * Kinds:
 *  - "serve"             — base / internal serving failure.
 *  - "serve.overloaded"  — admission control rejected the connection
 *                          (connection limit); retry later.
 *  - "serve.protocol"    — malformed frame or JSON line.
 *  - "serve.no_model"    — no bundle deployed yet.
 *  - "serve.bad_request" — well-formed frame, wrong arity for the
 *                          deployed bundle.
 */

#ifndef WCNN_SERVE_ERROR_HH
#define WCNN_SERVE_ERROR_HH

#include <string>

#include "core/error.hh"

namespace wcnn {
namespace serve {

/** Base of every serving fault. Kind "serve". */
class ServeError : public Error
{
  public:
    /** @param message Description of the serving fault. */
    explicit ServeError(const std::string &message)
        : Error("serve", message)
    {
    }

  protected:
    /** For subclasses refining the kind (e.g. "serve.overloaded"). */
    ServeError(std::string kind, const std::string &message)
        : Error(std::move(kind), message)
    {
    }
};

/**
 * Admission control rejected a connection instead of stalling the
 * caller. Kind "serve.overloaded". Always retryable: the connection
 * table was full *now*, not broken.
 */
class Overloaded : public ServeError
{
  public:
    /** @param message What was full (connection slots). */
    explicit Overloaded(const std::string &message)
        : ServeError("serve.overloaded", message)
    {
    }
};

/**
 * Malformed wire input: bad magic, impossible length, truncated body,
 * unparseable JSON line. Kind "serve.protocol".
 */
class ProtocolError : public ServeError
{
  public:
    /** @param message Description of the framing/parse fault. */
    explicit ProtocolError(const std::string &message)
        : ServeError("serve.protocol", message)
    {
    }
};

/** Predict before any bundle was deployed. Kind "serve.no_model". */
class NoModelError : public ServeError
{
  public:
    NoModelError() : ServeError("serve.no_model", "no model deployed")
    {
    }
};

/**
 * A syntactically valid request that does not fit the deployed
 * bundle (wrong input arity). Kind "serve.bad_request".
 */
class BadRequest : public ServeError
{
  public:
    /** @param message Description of the mismatch. */
    explicit BadRequest(const std::string &message)
        : ServeError("serve.bad_request", message)
    {
    }
};

/**
 * Bare message of a fault: what() minus its "<kind>: " prefix. Error
 * frames carry kind and message as separate fields, so the handler
 * must not double-encode the kind into the message.
 */
inline std::string
bareErrorMessage(const wcnn::Error &error)
{
    const std::string what = error.what();
    const std::string prefix = error.kind() + ": ";
    return what.compare(0, prefix.size(), prefix) == 0
               ? what.substr(prefix.size())
               : what;
}

} // namespace serve
} // namespace wcnn

#endif // WCNN_SERVE_ERROR_HH
