// Portable Clang Thread Safety Analysis macros. Under clang (which
// implements -Wthread-safety) these expand to the capability attributes
// that turn the locking discipline documented in docs/ARCHITECTURE.md
// into compile-time proofs; under GCC and every other compiler they
// expand to nothing, so annotated code builds everywhere and the
// analysis runs wherever clang does (the static-analysis CI job builds
// with -Wthread-safety -Werror).
//
// The vocabulary (matching the upstream attribute names):
//  - CUCKOOGRAPH_CAPABILITY / _SCOPED_CAPABILITY mark a lock type and a
//    RAII locker type (see common/mutex.h for the annotated wrappers).
//  - CUCKOOGRAPH_GUARDED_BY(mu) on a field means "hold mu to touch
//    this" — shared for reads, exclusive for writes.
//  - CUCKOOGRAPH_REQUIRES / _REQUIRES_SHARED on a function mean the
//    caller must already hold the named capability.
//  - CUCKOOGRAPH_ACQUIRE / _RELEASE (+ _SHARED variants) annotate the
//    lock type's own methods.
//  - CUCKOOGRAPH_EXCLUDES declares "must NOT be held" (non-reentrancy).
#ifndef CUCKOOGRAPH_COMMON_THREAD_ANNOTATIONS_H_
#define CUCKOOGRAPH_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CUCKOOGRAPH_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CUCKOOGRAPH_THREAD_ANNOTATION
#define CUCKOOGRAPH_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define CUCKOOGRAPH_CAPABILITY(x) \
  CUCKOOGRAPH_THREAD_ANNOTATION(capability(x))

#define CUCKOOGRAPH_SCOPED_CAPABILITY \
  CUCKOOGRAPH_THREAD_ANNOTATION(scoped_lockable)

#define CUCKOOGRAPH_GUARDED_BY(x) \
  CUCKOOGRAPH_THREAD_ANNOTATION(guarded_by(x))

#define CUCKOOGRAPH_PT_GUARDED_BY(x) \
  CUCKOOGRAPH_THREAD_ANNOTATION(pt_guarded_by(x))

#define CUCKOOGRAPH_ACQUIRED_BEFORE(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

#define CUCKOOGRAPH_ACQUIRED_AFTER(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

#define CUCKOOGRAPH_REQUIRES(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

#define CUCKOOGRAPH_REQUIRES_SHARED(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

#define CUCKOOGRAPH_ACQUIRE(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

#define CUCKOOGRAPH_ACQUIRE_SHARED(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

#define CUCKOOGRAPH_RELEASE(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#define CUCKOOGRAPH_RELEASE_SHARED(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

#define CUCKOOGRAPH_RELEASE_GENERIC(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

#define CUCKOOGRAPH_TRY_ACQUIRE(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

#define CUCKOOGRAPH_TRY_ACQUIRE_SHARED(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

#define CUCKOOGRAPH_EXCLUDES(...) \
  CUCKOOGRAPH_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define CUCKOOGRAPH_ASSERT_CAPABILITY(x) \
  CUCKOOGRAPH_THREAD_ANNOTATION(assert_capability(x))

#define CUCKOOGRAPH_ASSERT_SHARED_CAPABILITY(x) \
  CUCKOOGRAPH_THREAD_ANNOTATION(assert_shared_capability(x))

#define CUCKOOGRAPH_RETURN_CAPABILITY(x) \
  CUCKOOGRAPH_THREAD_ANNOTATION(lock_returned(x))

#define CUCKOOGRAPH_NO_THREAD_SAFETY_ANALYSIS \
  CUCKOOGRAPH_THREAD_ANNOTATION(no_thread_safety_analysis)

// Forces inlining so tiny probe helpers dissolve into their callers.
#if defined(__GNUC__) || defined(__clang__)
#define CUCKOOGRAPH_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define CUCKOOGRAPH_ALWAYS_INLINE inline
#endif

#endif  // CUCKOOGRAPH_COMMON_THREAD_ANNOTATIONS_H_
