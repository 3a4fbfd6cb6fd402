//go:build lzwtc_poison

package bitvec

// poison is on under the lzwtc_poison tag: Release fills every plane
// word it returns with value bits on don't-cares, so a reader that keeps
// using a released set's cubes sees cubes no decoder or parser can
// produce. `make poison` runs the service, planes, async-job,
// differential and conformance suites in this mode.
const poison = true
