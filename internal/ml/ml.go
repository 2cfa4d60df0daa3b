// Package ml provides the shared machine-learning plumbing for the
// queen-detection service: labeled datasets, train/test splitting,
// feature standardization and classification metrics.
//
// The two classifiers of Section V live in the subpackages ml/svm (the
// classical option) and ml/cnn (the deep option); both consume the types
// defined here.
package ml

import (
	"errors"
	"fmt"
	"math"

	"beesim/internal/rng"
)

// Dataset is a labeled collection of fixed-length feature vectors.
// Labels are class indices starting at 0.
type Dataset struct {
	X [][]float64
	Y []int
}

// NewDataset validates and wraps features and labels.
func NewDataset(x [][]float64, y []int) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d feature rows but %d labels", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, errors.New("ml: empty dataset")
	}
	dim := len(x[0])
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	for i, label := range y {
		if label < 0 {
			return nil, fmt.Errorf("ml: negative label at %d", i)
		}
	}
	return &Dataset{X: x, Y: y}, nil
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the feature dimensionality.
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Classes returns the number of classes (max label + 1).
func (d *Dataset) Classes() int {
	max := -1
	for _, y := range d.Y {
		if y > max {
			max = y
		}
	}
	return max + 1
}

// Split shuffles deterministically and splits into train and test sets
// with trainFrac of the examples in the training set. Both halves must
// end up non-empty.
func (d *Dataset) Split(trainFrac float64, seed uint64) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("ml: train fraction %v out of (0,1)", trainFrac)
	}
	n := d.Len()
	nTrain := int(math.Round(float64(n) * trainFrac))
	if nTrain == 0 || nTrain == n {
		return nil, nil, fmt.Errorf("ml: split of %d examples at %v leaves an empty side", n, trainFrac)
	}
	perm := rng.New(seed).Perm(n)
	mk := func(idx []int) *Dataset {
		x := make([][]float64, len(idx))
		y := make([]int, len(idx))
		for i, j := range idx {
			x[i], y[i] = d.X[j], d.Y[j]
		}
		return &Dataset{X: x, Y: y}
	}
	return mk(perm[:nTrain]), mk(perm[nTrain:]), nil
}

// Scaler standardizes features to zero mean and unit variance, fitted on
// training data and applied to both splits — the usual guard against
// test-set leakage.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes per-feature statistics over the dataset.
func FitScaler(d *Dataset) *Scaler {
	dim := d.Dim()
	mean := make([]float64, dim)
	std := make([]float64, dim)
	for _, row := range d.X {
		for j, v := range row {
			mean[j] += v
		}
	}
	n := float64(d.Len())
	for j := range mean {
		mean[j] /= n
	}
	for _, row := range d.X {
		for j, v := range row {
			diff := v - mean[j]
			std[j] += diff * diff
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / n)
		if std[j] == 0 {
			std[j] = 1 // constant feature: leave centered at zero
		}
	}
	return &Scaler{Mean: mean, Std: std}
}

// Transform returns a standardized copy of one feature vector.
func (s *Scaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll returns a standardized copy of the dataset.
func (s *Scaler) TransformAll(d *Dataset) *Dataset {
	x := make([][]float64, d.Len())
	for i, row := range d.X {
		x[i] = s.Transform(row)
	}
	return &Dataset{X: x, Y: d.Y}
}

// Classifier is anything that predicts a class for a feature vector.
type Classifier interface {
	Predict(x []float64) int
}

// ConfusionMatrix counts predictions: element [true][predicted].
func ConfusionMatrix(c Classifier, d *Dataset, classes int) [][]int {
	m := make([][]int, classes)
	for i := range m {
		m[i] = make([]int, classes)
	}
	for i, row := range d.X {
		pred := c.Predict(row)
		if d.Y[i] < classes && pred < classes && pred >= 0 {
			m[d.Y[i]][pred]++
		}
	}
	return m
}

// BinaryMetrics summarizes a two-class confusion matrix with class 1 as
// the positive class (queen present).
type BinaryMetrics struct {
	Accuracy  float64
	Precision float64
	Recall    float64
	F1        float64
}

// EvaluateBinary computes accuracy/precision/recall/F1 for a binary task.
func EvaluateBinary(c Classifier, d *Dataset) BinaryMetrics {
	cm := ConfusionMatrix(c, d, 2)
	tn, fp := float64(cm[0][0]), float64(cm[0][1])
	fn, tp := float64(cm[1][0]), float64(cm[1][1])
	total := tn + fp + fn + tp
	m := BinaryMetrics{}
	if total > 0 {
		m.Accuracy = (tp + tn) / total
	}
	if tp+fp > 0 {
		m.Precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		m.Recall = tp / (tp + fn)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}
