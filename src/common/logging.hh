/**
 * @file
 * Error-reporting helpers shared by every printed:: library.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a bug in this library), fatal() is for user errors
 * (bad configuration, malformed assembly, out-of-range parameters).
 */

#ifndef PRINTED_COMMON_LOGGING_HH
#define PRINTED_COMMON_LOGGING_HH

#include <stdexcept>
#include <string>

namespace printed
{

/** Thrown on user-caused errors (bad input, invalid configuration). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Thrown on internal invariant violations (library bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/**
 * Report a user error. Never returns.
 * @param msg Human-readable description of what the user got wrong.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal invariant violation. Never returns.
 * @param msg Description of the broken invariant.
 */
[[noreturn]] void panic(const std::string &msg);

/*
 * The *If helpers take a const char * so that a check that passes
 * never builds its message (they sit in per-gate loops). A computed
 * message goes behind the condition instead:
 *
 *     if (addr >= size)
 *         fatal("read at " + std::to_string(addr));
 */

/** Call fatal(msg) when cond is true. */
inline void
fatalIf(bool cond, const char *msg)
{
    if (cond)
        fatal(msg);
}

/** Call panic(msg) when cond is true. */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond)
        panic(msg);
}

} // namespace printed

#endif // PRINTED_COMMON_LOGGING_HH
