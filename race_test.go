//go:build race

package mcmdist

// raceBuild reports a build with the race detector, under which sync.Pool
// drops a random quarter of what is put back.
const raceBuild = true
