package litmus

// NewFingerprintClasses and CheckFingerprintOracle expose the fingerprint
// oracle check to the external test package, which can draw programs from
// the fuzz generator (an import the litmus package itself cannot make).
var (
	NewFingerprintClasses  = newFpClasses
	CheckFingerprintOracle = checkFingerprintOracle
)
