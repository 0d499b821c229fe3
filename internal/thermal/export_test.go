package thermal

// UseCSRIChol makes every Stepper built until restore is called
// precondition with the CSR reference IC(0) factor instead of the
// stencil-form one.
func UseCSRIChol() (restore func()) {
	prev := factorStepper
	factorStepper = func(a *stencil) (Preconditioner, error) {
		ic, err := newCSRIChol(strictLower(a), a.diag)
		if err != nil {
			return nil, err
		}
		return ic, nil
	}
	return func() { factorStepper = prev }
}
