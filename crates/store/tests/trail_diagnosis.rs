//! `TrailDiagnosis::from_class` is exactly the hit half of
//! `localise_trail`: for every class of a dictionary, served from RAM
//! and from its paged file, diagnosing the class directly equals
//! localising its trail. The clean and miss halves stay with
//! `localise_trail` and are pinned here too.

use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
use twm_march::algorithms::march_c_minus;
use twm_mem::{MemoryConfig, Word};
use twm_repair::{
    localise_trail, DictionaryOptions, SignatureDictionary, SignatureTrail, TrailDiagnosis,
    TrailLookup,
};
use twm_store::{PagedDictionary, StoreOptions};

fn dictionary(words: usize, width: usize, scheme: SchemeId) -> SignatureDictionary {
    let config = MemoryConfig::new(words, width).unwrap();
    let registry = SchemeRegistry::all(width).unwrap();
    let engine =
        CoverageEngine::for_scheme(registry.get(scheme).unwrap(), &march_c_minus(), config)
            .unwrap()
            .content(ContentPolicy::Random { seed: 29 })
            .build()
            .unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    let options = DictionaryOptions {
        multi_fault_samples: 32,
        ..DictionaryOptions::default()
    };
    SignatureDictionary::build(&engine, &universe, &options).unwrap()
}

fn assert_split_is_exact(lookup: &dyn TrailLookup, dictionary: &SignatureDictionary) {
    for class in dictionary.classes() {
        assert_eq!(
            TrailDiagnosis::from_class(class),
            localise_trail(lookup, &class.trail).unwrap()
        );
    }

    let clean = localise_trail(lookup, dictionary.fault_free_trail()).unwrap();
    assert!(clean.clean && !clean.dictionary_hit);
    assert!(clean.defects.is_empty());
    assert_eq!(clean.ambiguity, 0);

    let width = dictionary.config().width();
    let absent = SignatureTrail::new(vec![Word::ones(width); dictionary.fault_free_trail().len()]);
    assert!(
        dictionary.lookup(&absent).is_none(),
        "probe trail must miss"
    );
    let miss = localise_trail(lookup, &absent).unwrap();
    assert!(!miss.clean && !miss.dictionary_hit);
    assert!(miss.defects.is_empty());
    assert_eq!(miss.ambiguity, 0);
}

#[test]
fn from_class_equals_localise_trail_in_ram_and_paged() {
    for (words, width, scheme) in [(8, 4, SchemeId::TwmTa), (6, 8, SchemeId::Scheme1)] {
        let dictionary = dictionary(words, width, scheme);
        assert_split_is_exact(&dictionary, &dictionary);

        let path = std::env::temp_dir().join(format!(
            "twm-trail-diagnosis-{}-{words}x{width}.twmstore",
            std::process::id()
        ));
        let options = StoreOptions {
            page_size: 1024,
            cache_budget: 2 * 1024,
        };
        PagedDictionary::write(&dictionary, &path, &options).unwrap();
        let paged = PagedDictionary::open(&path, &options).unwrap();
        assert_split_is_exact(&paged, &dictionary);
        std::fs::remove_file(&path).unwrap();
    }
}
