package ssample

// SampleSizeUsed reports the number of weighted draws in the plan.
func (pl *Plan) SampleSizeUsed() int { return len(pl.draws) }
