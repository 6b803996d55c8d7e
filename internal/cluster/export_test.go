package cluster

// MaxRecoveryAttempts lets the external tests count a supervisor's
// recovery attempts against the constant it runs with.
const MaxRecoveryAttempts = maxAttempts
